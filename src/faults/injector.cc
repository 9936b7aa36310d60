#include "faults/injector.hh"

namespace performa::fault {

const char *
faultName(FaultKind k)
{
    switch (k) {
      case FaultKind::LinkDown:
        return "link-down";
      case FaultKind::SwitchDown:
        return "switch-down";
      case FaultKind::NodeCrash:
        return "node-crash";
      case FaultKind::NodeFreeze:
        return "node-freeze";
      case FaultKind::KernelMemAlloc:
        return "kernel-mem-alloc";
      case FaultKind::PinExhaustion:
        return "pin-exhaustion";
      case FaultKind::AppCrash:
        return "app-crash";
      case FaultKind::AppHang:
        return "app-hang";
      case FaultKind::BadParamNull:
        return "bad-param-null";
      case FaultKind::BadParamOffPtr:
        return "bad-param-off-ptr";
      case FaultKind::BadParamOffSize:
        return "bad-param-off-size";
      case FaultKind::PacketDrop:
        return "packet-drop";
    }
    return "?";
}

bool
hasDuration(FaultKind k)
{
    switch (k) {
      case FaultKind::LinkDown:
      case FaultKind::SwitchDown:
      case FaultKind::NodeCrash: // downtime until reboot
      case FaultKind::NodeFreeze:
      case FaultKind::KernelMemAlloc:
      case FaultKind::PinExhaustion:
      case FaultKind::AppHang:
        return true;
      case FaultKind::AppCrash:
      case FaultKind::BadParamNull:
      case FaultKind::BadParamOffPtr:
      case FaultKind::BadParamOffSize:
      case FaultKind::PacketDrop:
        return false;
    }
    return false;
}

void
Injector::emit(press::MarkerKind kind, const FaultSpec &spec)
{
    std::string what =
        std::string(press::markerName(kind)) + " " + faultName(spec.kind);
    sim::NodeId node = spec.kind == FaultKind::SwitchDown ? sim::invalidNode
                                                          : spec.target;
    cluster_.markers().add(sim_.now(), kind, node, sim::invalidNode,
                           std::move(what));
}

void
Injector::schedule(const FaultSpec &spec)
{
    sim_.schedule(spec.injectAt, [this, spec] { injectNow(spec); });
}

void
Injector::injectNow(const FaultSpec &spec)
{
    switch (spec.kind) {
      case FaultKind::LinkDown:
        cluster_.intraNet().setLinkUp(spec.target, false);
        break;

      case FaultKind::SwitchDown:
        cluster_.intraNet().setSwitchUp(false);
        break;

      case FaultKind::NodeCrash:
        // Node::crash schedules its own reboot; recovery marker fires
        // when the downtime elapses.
        cluster_.node(spec.target).crash(spec.duration);
        break;

      case FaultKind::NodeFreeze:
        cluster_.node(spec.target).freeze(spec.duration);
        break;

      case FaultKind::KernelMemAlloc:
        cluster_.node(spec.target).kernelMem().setFailInjected(true);
        break;

      case FaultKind::PinExhaustion:
        cluster_.node(spec.target).pins().setInjectedLimit(
            spec.pinLimitBytes);
        break;

      case FaultKind::AppCrash:
        cluster_.node(spec.target).killService();
        break;

      case FaultKind::AppHang:
        cluster_.node(spec.target).stopService();
        break;

      case FaultKind::BadParamNull:
        cluster_.server(spec.target).armBadParams({.nullPointer = true});
        break;

      case FaultKind::BadParamOffPtr:
        cluster_.server(spec.target).armBadParams(
            {.ptrOffset = spec.offByN});
        break;

      case FaultKind::BadParamOffSize:
        cluster_.server(spec.target).armBadParams(
            {.sizeDelta = spec.offByN});
        break;

      case FaultKind::PacketDrop:
        // "We model transient packet loss as application process
        // crashes" on VIA (the loss is reported as a fatal error);
        // TCP retransmission absorbs it.
        if (press::isVia(cluster_.config().press.version))
            cluster_.node(spec.target).killService();
        break;
    }
    emit(press::MarkerKind::Inject, spec);
    if (hasDuration(spec.kind))
        sim_.scheduleIn(spec.duration, [this, spec] { recover(spec); });
}

void
Injector::recover(const FaultSpec &spec)
{
    switch (spec.kind) {
      case FaultKind::LinkDown:
        cluster_.intraNet().setLinkUp(spec.target, true);
        break;
      case FaultKind::SwitchDown:
        cluster_.intraNet().setSwitchUp(true);
        break;
      case FaultKind::NodeCrash:
        break; // Node rebooted on its own schedule
      case FaultKind::NodeFreeze:
        break; // Node unfroze on its own schedule
      case FaultKind::KernelMemAlloc:
        cluster_.node(spec.target).kernelMem().setFailInjected(false);
        break;
      case FaultKind::PinExhaustion:
        cluster_.node(spec.target).pins().setInjectedLimit(
            ~std::uint64_t(0));
        break;
      case FaultKind::AppHang:
        cluster_.node(spec.target).contService();
        break;
      default:
        break;
    }
    emit(press::MarkerKind::Recover, spec);
}

} // namespace performa::fault
