/**
 * @file
 * Status-message and error-handling helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (aborts, may dump core), fatal() is for unrecoverable
 * user/configuration errors (clean exit(1)), warn()/inform() report
 * conditions without stopping the run.
 */

#ifndef WSVA_COMMON_LOGGING_H
#define WSVA_COMMON_LOGGING_H

#include <cstdarg>
#include <functional>
#include <string>
#include <string_view>

namespace wsva {

/** printf-style formatting into a std::string. */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vstrformat(const char *fmt, va_list args);

/**
 * Append @p s to @p out as a quoted JSON string: `"` and `\` get a
 * backslash and control characters become `\u00xx`. Every JSON
 * exporter in the tree writes its strings through this one function.
 */
void appendJsonString(std::string &out, std::string_view s);

/**
 * A log sink receives every emitted line as (severity tag, message).
 * The default sink writes "tag: message" to stderr.
 */
using LogSinkFn =
    std::function<void(const char *tag, const std::string &msg)>;

/**
 * Replace the process-wide log sink (thread-safe). An empty function
 * restores the default stderr sink. Tests use this to capture and
 * assert on log output; long-running drivers can route logs into
 * their own telemetry. Note that fatal()/panic() still terminate
 * after the sink call.
 */
void setLogSink(LogSinkFn sink);

/** Restore the default stderr sink. */
void resetLogSink();

/**
 * Forget which warn() messages have been seen (the duplicate
 * rate-limit state). Tests call this for isolation.
 */
void resetWarnRateLimit();

namespace detail {
/** Emit one log line with the given severity tag via the sink. */
void logLine(const char *tag, const std::string &msg);
} // namespace detail

/** Report normal operating status; no connotation of misbehaviour. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report a suspicious-but-survivable condition. Identical repeated
 * messages are rate-limited: the first occurrence is emitted, then
 * only every power-of-ten repetition (10th, 100th, ...) with a
 * "(seen N times)" suffix — a warn in a per-tick or per-step loop
 * cannot flood the log.
 */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Terminate due to an unrecoverable user/configuration error.
 * Calls exit(1); never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Terminate due to an internal bug (a condition that should never
 * happen regardless of input). Calls abort(); never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** panic() unless the condition holds. Cheap enough to keep in release. */
#define WSVA_ASSERT(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::wsva::panic("assertion '%s' failed at %s:%d: %s", #cond,      \
                          __FILE__, __LINE__,                               \
                          ::wsva::strformat(__VA_ARGS__).c_str());          \
        }                                                                   \
    } while (0)

} // namespace wsva

#endif // WSVA_COMMON_LOGGING_H
