#include "press/config.hh"

#include "sim/logging.hh"

namespace performa::press {

const char *
versionName(Version v)
{
    switch (v) {
      case Version::TcpPress:
        return "TCP-PRESS";
      case Version::TcpPressHb:
        return "TCP-PRESS-HB";
      case Version::ViaPress0:
        return "VIA-PRESS-0";
      case Version::ViaPress3:
        return "VIA-PRESS-3";
      case Version::ViaPress5:
        return "VIA-PRESS-5";
    }
    return "?";
}

bool
isVia(Version v)
{
    return v == Version::ViaPress0 || v == Version::ViaPress3 ||
           v == Version::ViaPress5;
}

bool
usesHeartbeats(Version v)
{
    return v == Version::TcpPressHb;
}

bool
usesDynamicPinning(Version v)
{
    return v == Version::ViaPress5;
}

double
paperThroughput(Version v)
{
    switch (v) {
      case Version::TcpPress:
        return 4965.0;
      case Version::TcpPressHb:
        return 4965.0;
      case Version::ViaPress0:
        return 6031.0;
      case Version::ViaPress3:
        return 6221.0;
      case Version::ViaPress5:
        return 7058.0;
    }
    return 0.0;
}

proto::TcpConfig
tcpConfigFor(Version v)
{
    if (isVia(v))
        PANIC("tcpConfigFor called for a VIA version");
    proto::TcpConfig cfg;
    // Kernel TCP on an 800 MHz PIII: syscall + interrupt + protocol
    // processing per message, plus two copies' worth of per-byte cost.
    cfg.costs.sendFixed = sim::usec(63);
    cfg.costs.sendPerKb = 12.0;
    cfg.costs.recvFixed = sim::usec(74);
    cfg.costs.recvPerKb = 12.0;
    return cfg;
}

proto::ViaConfig
viaConfigFor(Version v)
{
    proto::ViaConfig cfg;
    switch (v) {
      case Version::ViaPress0:
        // User-level descriptor post, one copy each side, interrupt-
        // driven reception.
        cfg.mode = proto::ViaMode::SendRecv;
        cfg.costs.sendFixed = sim::usec(21);
        cfg.costs.sendPerKb = 9.0;
        cfg.costs.recvFixed = sim::usec(42);
        cfg.costs.recvPerKb = 9.0;
        break;
      case Version::ViaPress3:
        // Remote memory writes; receiver polls, no interrupts.
        cfg.mode = proto::ViaMode::RemoteWrite;
        cfg.costs.sendFixed = sim::usec(24);
        cfg.costs.sendPerKb = 9.0;
        cfg.costs.recvFixed = sim::usec(23);
        cfg.costs.recvPerKb = 9.0;
        cfg.pollDelay = sim::usec(50);
        break;
      case Version::ViaPress5:
        // Remote writes + zero-copy: the large copies disappear; a
        // small per-page descriptor cost remains.
        cfg.mode = proto::ViaMode::RemoteWriteZeroCopy;
        cfg.costs.sendFixed = sim::usec(24);
        cfg.costs.sendPerKb = 3.0;
        cfg.costs.recvFixed = sim::usec(23);
        cfg.costs.recvPerKb = 3.0;
        cfg.pollDelay = sim::usec(50);
        break;
      default:
        PANIC("viaConfigFor called for a TCP version");
    }
    return cfg;
}

} // namespace performa::press
