#include "base/trace.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "base/logging.hh"

namespace swex
{

namespace
{

/** Serializes the trace sink so lines from concurrent runs never
 *  interleave mid-line. */
std::mutex &
traceMutex()
{
    static std::mutex m;
    return m;
}

/** The label of the run executing on this host thread, "" if none. */
thread_local std::string runLabel;

/** Per-run trace file for this host thread (SWEX_TRACE_DIR), or null
 *  when lines go to the shared stderr sink. */
thread_local std::FILE *runFile = nullptr;

/** Directory for per-run trace files, null if not requested. */
const char *
perRunTraceDir()
{
    static const char *dir = std::getenv("SWEX_TRACE_DIR");
    return dir;
}

/** Label -> file-name stem: path separators and shell-hostile
 *  characters become underscores. */
std::string
sanitizeLabel(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') ||
                        c == '.' || c == '-' || c == '_';
        if (!ok)
            c = '_';
    }
    return out;
}

} // anonymous namespace

bool
traceEnabled()
{
    static const bool enabled = std::getenv("SWEX_TRACE") != nullptr;
    return enabled;
}

void
traceEvent(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string line = vstrfmt(fmt, args);
    va_end(args);

    std::lock_guard<std::mutex> hold(traceMutex());
    if (runFile != nullptr) {
        // A dedicated per-run file: the file name already states the
        // run, so the label prefix would be noise.
        std::fprintf(runFile, "%s\n", line.c_str());
    } else if (runLabel.empty()) {
        std::fprintf(stderr, "%s\n", line.c_str());
    } else {
        std::fprintf(stderr, "[%s] %s\n", runLabel.c_str(),
                     line.c_str());
    }
}

TraceRunScope::TraceRunScope(const std::string &label)
    : saved(std::move(runLabel)), savedFile(runFile)
{
    runLabel = label;
    if (traceEnabled() && perRunTraceDir() != nullptr &&
        !label.empty()) {
        std::string path = std::string(perRunTraceDir()) + "/" +
                           sanitizeLabel(label) + ".trace";
        // Append: a run re-executed under the same id adds
        // to its file rather than clobbering the evidence. A failed
        // open silently falls back to the labeled stderr sink.
        if (std::FILE *f = std::fopen(path.c_str(), "a"))
            runFile = f;
    }
}

TraceRunScope::~TraceRunScope()
{
    if (runFile != nullptr && runFile != savedFile)
        std::fclose(runFile);
    runFile = savedFile;
    runLabel = std::move(saved);
}

} // namespace swex
