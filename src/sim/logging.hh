/**
 * @file
 * Error and status reporting in the gem5 tradition.
 *
 * panic()  — an internal invariant of the simulator is broken; aborts.
 * fatal()  — the user asked for something impossible (bad configuration,
 *            invalid arguments); exits with an error code.
 * warn()   — something works, but not as well as it should.
 * inform() — a status message with no negative connotation.
 */

#ifndef GASNUB_SIM_LOGGING_HH
#define GASNUB_SIM_LOGGING_HH

#include <sstream>
#include <string>

namespace gasnub {

/** Verbosity levels for inform(); see setLogLevel(). */
enum class LogLevel { Quiet = 0, Normal = 1, Verbose = 2 };

/** Set the global log level (default: Normal). */
void setLogLevel(LogLevel level);

/** @return the current global log level. */
LogLevel logLevel();

/**
 * Opt-in monotonic timestamps: when on, every warn/inform/log line is
 * prefixed with "[seconds.micros] " read from metrics::monotonicMicros(),
 * so service-log and slow-query lines emitted by concurrent worker
 * threads are orderable after the fact and share their time origin
 * with serve's --trace-out spans.  Off by
 * default — golden CLI output is unchanged unless the user opts in
 * via setLogTimestamps() or the GASNUB_LOG_TIMESTAMPS environment
 * variable (any non-empty value other than "0").
 */
void setLogTimestamps(bool on);

/** @return true when timestamp prefixes are on. */
bool logTimestamps();

/** Enable timestamps iff GASNUB_LOG_TIMESTAMPS is set non-empty and
 *  not "0"; called once by long-running tools at startup. */
void logTimestampsFromEnv();

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg, LogLevel level);
void logImpl(const std::string &msg);

/** Fold a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/**
 * Report an internal simulator bug and abort. Use when a condition that
 * should be impossible regardless of user input has occurred.
 */
#define GASNUB_PANIC(...) \
    ::gasnub::detail::panicImpl(__FILE__, __LINE__, \
                                ::gasnub::detail::format(__VA_ARGS__))

/**
 * Report an unrecoverable user error (bad configuration or arguments) and
 * exit(1). The simulator itself is not at fault.
 */
#define GASNUB_FATAL(...) \
    ::gasnub::detail::fatalImpl(__FILE__, __LINE__, \
                                ::gasnub::detail::format(__VA_ARGS__))

/** Warn about behaviour that may be incorrect but lets us continue. */
#define GASNUB_WARN(...) \
    ::gasnub::detail::warnImpl(::gasnub::detail::format(__VA_ARGS__))

/** Emit a status message at Normal verbosity. */
#define GASNUB_INFORM(...) \
    ::gasnub::detail::informImpl(::gasnub::detail::format(__VA_ARGS__), \
                                 ::gasnub::LogLevel::Normal)

/** Emit a status message only at Verbose verbosity. */
#define GASNUB_VERBOSE(...) \
    ::gasnub::detail::informImpl(::gasnub::detail::format(__VA_ARGS__), \
                                 ::gasnub::LogLevel::Verbose)

/**
 * Emit one structured service-log record ("log: key=value ...") to
 * stderr as a single write, so records from concurrent worker threads
 * never interleave mid-line.  Honours the timestamp prefix (see
 * setLogTimestamps()); used for the serve layer's slow-query log.
 */
#define GASNUB_LOG(...) \
    ::gasnub::detail::logImpl(::gasnub::detail::format(__VA_ARGS__))

/** Panic if @p cond does not hold. Cheap enough to keep in release. */
#define GASNUB_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            GASNUB_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__); \
        } \
    } while (0)

} // namespace gasnub

#endif // GASNUB_SIM_LOGGING_HH
