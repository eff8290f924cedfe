#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/logging.hh"

namespace cdma::obs {

namespace {

/** Escape the characters JSON string literals cannot carry verbatim. */
std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Microsecond timestamp with fixed three-decimal precision — the
 * formatting (not just the simulation) must be deterministic for traces
 * to be byte-stable across runs.
 */
std::string
formatMicros(double seconds)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
    return buf;
}

std::string
formatValue(const TraceValue &value)
{
    switch (value.kind()) {
      case TraceValue::Kind::U64: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(value.u64()));
        return buf;
      }
      case TraceValue::Kind::F64: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", value.f64());
        return buf;
      }
      case TraceValue::Kind::Str:
        // Appended piecewise: GCC 12's -Wrestrict misfires on the
        // const char* + std::string&& operator+ overload.
        return std::string(1, '"').append(jsonEscape(value.str())) + '"';
    }
    return "null";
}

std::string
formatArgs(const TraceArgs &args)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : args) {
        if (!first)
            out += ",";
        first = false;
        out += '"';
        out += jsonEscape(key);
        out += "\":";
        out += formatValue(value);
    }
    out += "}";
    return out;
}

} // namespace

TrackId
TraceRecorder::track(const std::string &process, const std::string &thread)
{
    const auto key = std::make_pair(process, thread);
    if (auto it = track_index_.find(key); it != track_index_.end())
        return it->second;
    auto [pid_it, inserted] =
        pids_.emplace(process, static_cast<uint32_t>(pids_.size() + 1));
    (void)inserted;
    uint32_t tid = 1;
    for (const Track &t : tracks_) {
        if (t.process == process && !t.is_counter)
            ++tid;
    }
    const auto id = static_cast<TrackId>(tracks_.size());
    tracks_.push_back(Track{process, thread, pid_it->second, tid, false});
    track_index_.emplace(key, id);
    return id;
}

TrackId
TraceRecorder::counterTrack(const std::string &process,
                            const std::string &name)
{
    // Counter tracks share the track_index_ namespace with a sentinel
    // prefix so a counter and a thread with the same name don't alias.
    const auto key = std::make_pair(process, "\x01counter\x01" + name);
    if (auto it = track_index_.find(key); it != track_index_.end())
        return it->second;
    auto [pid_it, inserted] =
        pids_.emplace(process, static_cast<uint32_t>(pids_.size() + 1));
    (void)inserted;
    const auto id = static_cast<TrackId>(tracks_.size());
    tracks_.push_back(Track{process, name, pid_it->second, 0, true});
    track_index_.emplace(key, id);
    return id;
}

void
TraceRecorder::span(TrackId track, std::string name, double begin_s,
                    double end_s, TraceArgs args)
{
    CDMA_ASSERT(track < tracks_.size(), "unknown trace track %u", track);
    CDMA_ASSERT(end_s >= begin_s, "span '%s' ends (%g) before it begins (%g)",
                name.c_str(), end_s, begin_s);
    events_.push_back(Event{Phase::Span, track, std::move(name), begin_s,
                            end_s, 0.0, std::move(args)});
}

void
TraceRecorder::instant(TrackId track, std::string name, double at_s,
                       TraceArgs args)
{
    CDMA_ASSERT(track < tracks_.size(), "unknown trace track %u", track);
    events_.push_back(Event{Phase::Instant, track, std::move(name), at_s,
                            at_s, 0.0, std::move(args)});
}

void
TraceRecorder::counter(TrackId track, double at_s, double value)
{
    CDMA_ASSERT(track < tracks_.size(), "unknown trace track %u", track);
    CDMA_ASSERT(tracks_[track].is_counter,
                "track %u ('%s') is not a counter track", track,
                tracks_[track].thread.c_str());
    events_.push_back(
        Event{Phase::Counter, track, tracks_[track].thread, at_s, at_s,
              value, {}});
}

void
TraceRecorder::setTotal(const std::string &key, uint64_t value)
{
    totals_[key] = value;
}

std::string
TraceRecorder::toJson() const
{
    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    auto append = [&](const std::string &line) {
        if (!first)
            out += ",\n";
        first = false;
        out += line;
    };

    // Metadata first: name every pid once and every (pid, tid) pair.
    std::map<uint32_t, std::string> process_names;
    for (const auto &[process, pid] : pids_)
        process_names[pid] = process;
    for (const auto &[pid, process] : process_names) {
        char head[64];
        std::snprintf(head, sizeof(head),
                      "{\"ph\":\"M\",\"pid\":%u,\"tid\":0,", pid);
        append(std::string(head) +
               "\"name\":\"process_name\",\"args\":{\"name\":\"" +
               jsonEscape(process) + "\"}}");
    }
    for (const Track &t : tracks_) {
        if (t.is_counter)
            continue;
        char head[64];
        std::snprintf(head, sizeof(head),
                      "{\"ph\":\"M\",\"pid\":%u,\"tid\":%u,", t.pid, t.tid);
        append(std::string(head) +
               "\"name\":\"thread_name\",\"args\":{\"name\":\"" +
               jsonEscape(t.thread) + "\"}}");
    }

    // Events in timestamp order; stable sort keeps emission order for
    // ties so serialization is deterministic.
    std::vector<const Event *> ordered;
    ordered.reserve(events_.size());
    for (const Event &e : events_)
        ordered.push_back(&e);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Event *a, const Event *b) {
                         return a->begin_s < b->begin_s;
                     });

    for (const Event *e : ordered) {
        const Track &t = tracks_[e->track];
        char head[64];
        std::snprintf(head, sizeof(head), "{\"pid\":%u,\"tid\":%u,", t.pid,
                      t.tid);
        std::string line = head;
        line += "\"name\":\"" + jsonEscape(e->name) + "\",";
        switch (e->phase) {
          case Phase::Span:
            line += "\"ph\":\"X\",\"ts\":" + formatMicros(e->begin_s) +
                ",\"dur\":" + formatMicros(e->end_s - e->begin_s);
            break;
          case Phase::Instant:
            line += "\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
                formatMicros(e->begin_s);
            break;
          case Phase::Counter: {
            char value[64];
            std::snprintf(value, sizeof(value), "%.6g", e->value);
            line += "\"ph\":\"C\",\"ts\":" + formatMicros(e->begin_s) +
                ",\"args\":{\"value\":" + std::string(value) + "}}";
            append(line);
            continue;
          }
        }
        if (!e->args.empty())
            line += ",\"args\":" + formatArgs(e->args);
        line += "}";
        append(line);
    }

    out += "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{";
    bool first_total = true;
    for (const auto &[key, value] : totals_) {
        if (!first_total)
            out += ",";
        first_total = false;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(value));
        out += '"';
        out += jsonEscape(key);
        out += "\":";
        out += buf;
    }
    out += "}}\n";
    return out;
}

void
TraceRecorder::writeFileOrDie(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open trace output '%s'", path.c_str());
    out << toJson();
    out.flush();
    if (!out)
        fatal("failed writing trace output '%s'", path.c_str());
}

std::string
extractFlag(int &argc, char **argv, const std::string &name)
{
    const std::string prefix = "--" + name + "=";
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind(prefix, 0) != 0)
            continue;
        std::string value = std::string(argv[i]).substr(prefix.size());
        for (int j = i; j + 1 < argc; ++j)
            argv[j] = argv[j + 1];
        --argc;
        return value;
    }
    return "";
}

} // namespace cdma::obs
