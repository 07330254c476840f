#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace wsva {

namespace {

/** Guards the sink pointer; function-local so early logging works. */
std::mutex &
sinkMutex()
{
    static std::mutex m;
    return m;
}

LogSinkFn &
sinkRef()
{
    static LogSinkFn sink;
    return sink;
}

/** Guards the duplicate-warn bookkeeping. */
std::mutex &
warnMutex()
{
    static std::mutex m;
    return m;
}

std::unordered_map<std::string, uint64_t> &
warnCounts()
{
    static std::unordered_map<std::string, uint64_t> counts;
    return counts;
}

/** Bound on distinct tracked messages before the state resets. */
constexpr size_t kMaxTrackedWarns = 4096;

/** Emit the 1st occurrence, then only the 10th, 100th, 1000th, ... */
bool
shouldEmitNth(uint64_t n)
{
    if (n == 1)
        return true;
    for (uint64_t t = 10; t <= n; t *= 10) {
        if (t == n)
            return true;
    }
    return false;
}

} // namespace

std::string
vstrformat(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return "<format error>";
    std::string out(static_cast<size_t>(needed), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

std::string
strformat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string out = vstrformat(fmt, args);
    va_end(args);
    return out;
}

void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += strformat("\\u%04x", c);
        } else {
            out += c;
        }
    }
    out += '"';
}

void
setLogSink(LogSinkFn sink)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    sinkRef() = std::move(sink);
}

void
resetLogSink()
{
    setLogSink(LogSinkFn{});
}

void
resetWarnRateLimit()
{
    std::lock_guard<std::mutex> lock(warnMutex());
    warnCounts().clear();
}

namespace detail {

void
logLine(const char *tag, const std::string &msg)
{
    // Copy the sink out so a slow sink does not serialize loggers
    // and a sink that logs cannot self-deadlock.
    LogSinkFn sink;
    {
        std::lock_guard<std::mutex> lock(sinkMutex());
        sink = sinkRef();
    }
    if (sink) {
        sink(tag, msg);
        return;
    }
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // namespace detail

void
inform(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    detail::logLine("info", vstrformat(fmt, args));
    va_end(args);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrformat(fmt, args);
    va_end(args);

    uint64_t seen = 0;
    {
        std::lock_guard<std::mutex> lock(warnMutex());
        auto &counts = warnCounts();
        if (counts.size() >= kMaxTrackedWarns &&
            counts.find(msg) == counts.end()) {
            counts.clear(); // Bounded state; restart suppression.
        }
        seen = ++counts[msg];
    }
    if (!shouldEmitNth(seen))
        return;
    if (seen > 1)
        msg += strformat(" (seen %llu times)",
                         static_cast<unsigned long long>(seen));
    detail::logLine("warn", msg);
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    detail::logLine("fatal", vstrformat(fmt, args));
    va_end(args);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    detail::logLine("panic", vstrformat(fmt, args));
    va_end(args);
    std::abort();
}

} // namespace wsva
