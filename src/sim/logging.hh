/**
 * @file
 * Error-reporting helpers in the spirit of gem5's base/logging.hh:
 * PANIC for internal invariant violations and FATAL for
 * user/configuration errors. A run's event record is press::MarkerLog,
 * not a text stream.
 */

#ifndef PERFORMA_SIM_LOGGING_HH
#define PERFORMA_SIM_LOGGING_HH

#include <sstream>
#include <string>

namespace performa::sim {

/**
 * Abort the process because an internal invariant was violated.
 * Use for conditions that indicate a bug in performa itself.
 */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/**
 * Exit the process because of an unusable configuration or input.
 * Use for conditions that are the caller's fault, not a bug.
 */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

namespace detail {

/** Concatenate any streamable arguments into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

#define PANIC(...) \
    ::performa::sim::panicImpl(__FILE__, __LINE__, \
        ::performa::sim::detail::concat(__VA_ARGS__))

#define FATAL(...) \
    ::performa::sim::fatalImpl(__FILE__, __LINE__, \
        ::performa::sim::detail::concat(__VA_ARGS__))

} // namespace performa::sim

#endif // PERFORMA_SIM_LOGGING_HH
