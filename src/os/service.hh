/**
 * @file
 * The contract between a node's monitor daemon and the application it
 * supervises. Mendosus runs a user-level daemon on each node that
 * starts the server process, delivers SIGSTOP/SIGCONT/SIGKILL to it,
 * and restarts it; Service is the process-side half of that protocol.
 * The daemon restarts a process it killed on its own, and starts one
 * lost in a node crash at the next boot; the only exit a process
 * reports itself is a fail-fast (Node::serviceFailedFast).
 */

#ifndef PERFORMA_OS_SERVICE_HH
#define PERFORMA_OS_SERVICE_HH

namespace performa::osim {

/**
 * A supervised application process (implemented by press::Server).
 */
class Service
{
  public:
    virtual ~Service() = default;

    /** (Re)start the process with a fresh state. */
    virtual void start() = 0;

    /** SIGSTOP: the process stops consuming CPU and timers. */
    virtual void sigStop() = 0;

    /** SIGCONT: resume after a SIGSTOP. */
    virtual void sigCont() = 0;

    /**
     * Terminate the process.
     * @param silent true when the node itself died, so the OS never
     * got a chance to close sockets (no FIN/RST to peers).
     */
    virtual void terminate(bool silent) = 0;

    /** @return true while the process exists (running or stopped). */
    virtual bool alive() const = 0;
};

} // namespace performa::osim

#endif // PERFORMA_OS_SERVICE_HH
