#include "sim/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "sim/metrics.hh"

namespace gasnub {

namespace {

LogLevel globalLevel = LogLevel::Normal;
std::atomic<bool> timestampsOn{false};

/** "[seconds.micros] " when timestamps are on, "" otherwise. */
std::string
timestampPrefix()
{
    if (!timestampsOn.load(std::memory_order_relaxed))
        return "";
    const std::uint64_t us = metrics::monotonicMicros();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "[%llu.%06llu] ",
                  static_cast<unsigned long long>(us / 1000000),
                  static_cast<unsigned long long>(us % 1000000));
    return buf;
}

/** Write one whole line with a single call so concurrent threads'
 *  records never interleave mid-line. */
void
writeLine(std::FILE *to, const std::string &line)
{
    std::fwrite(line.data(), 1, line.size(), to);
    std::fflush(to);
}

} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

LogLevel
logLevel()
{
    return globalLevel;
}

void
setLogTimestamps(bool on)
{
    if (on)
        metrics::monotonicMicros(); // pin the origin before the first line
    timestampsOn.store(on, std::memory_order_relaxed);
}

bool
logTimestamps()
{
    return timestampsOn.load(std::memory_order_relaxed);
}

void
logTimestampsFromEnv()
{
    const char *v = std::getenv("GASNUB_LOG_TIMESTAMPS");
    if (v && *v && std::strcmp(v, "0") != 0)
        setLogTimestamps(true);
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << timestampPrefix() << "panic: " << msg << "\n  at "
              << file << ":" << line << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << timestampPrefix() << "fatal: " << msg << "\n  at "
              << file << ":" << line << std::endl;
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (globalLevel != LogLevel::Quiet)
        writeLine(stderr, timestampPrefix() + "warn: " + msg + "\n");
}

void
informImpl(const std::string &msg, LogLevel level)
{
    if (static_cast<int>(globalLevel) >= static_cast<int>(level))
        writeLine(stdout, timestampPrefix() + "info: " + msg + "\n");
}

void
logImpl(const std::string &msg)
{
    if (globalLevel != LogLevel::Quiet)
        writeLine(stderr, timestampPrefix() + "log: " + msg + "\n");
}

} // namespace detail

} // namespace gasnub
