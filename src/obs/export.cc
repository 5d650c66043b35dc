#include "obs/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace obs {

namespace {

void
append_escaped(std::string& out, std::string_view s)
{
    out.push_back('"');
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
append_u64(std::string& out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out += buf;
}

void
append_double(std::string& out, double v)
{
    char buf[40];
    // %.17g round-trips doubles; integral values print without exponent.
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", v);
    } else {
        std::snprintf(buf, sizeof buf, "%.17g", v);
    }
    out += buf;
}

void
append_histogram_json(std::string& out, const Histogram& h)
{
    out += "{\"count\":";
    append_u64(out, h.count());
    out += ",\"min\":";
    append_u64(out, h.min());
    out += ",\"max\":";
    append_u64(out, h.max());
    out += ",\"mean\":";
    append_double(out, h.mean());
    out += ",\"p50\":";
    append_double(out, h.percentile(50));
    out += ",\"p90\":";
    append_double(out, h.percentile(90));
    out += ",\"p99\":";
    append_double(out, h.percentile(99));
    out += ",\"p999\":";
    append_double(out, h.percentile(99.9));
    out += ",\"buckets\":[";
    bool first = true;
    for (std::uint32_t i = 0; i < Histogram::kBucketCount; i++) {
        std::uint64_t c = h.bucket_count(i);
        if (c == 0) {
            continue;
        }
        if (!first) {
            out.push_back(',');
        }
        first = false;
        out += "[";
        append_u64(out, Histogram::bucket_lower(i));
        out.push_back(',');
        append_u64(out, c);
        out += "]";
    }
    out += "]}";
}

} // namespace

std::string
to_json(const MetricsSnapshot& snap)
{
    std::string out;
    out += "{\n  \"schema\": \"cxlalloc-metrics-v1\",\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, v] : snap.counters) {
        if (!first) {
            out.push_back(',');
        }
        first = false;
        out += "\n    ";
        append_escaped(out, name);
        out += ": ";
        append_u64(out, v);
    }
    out += "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto& [name, v] : snap.gauges) {
        if (!first) {
            out.push_back(',');
        }
        first = false;
        out += "\n    ";
        append_escaped(out, name);
        out += ": ";
        append_double(out, v);
    }
    out += "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : snap.histograms) {
        if (!first) {
            out.push_back(',');
        }
        first = false;
        out += "\n    ";
        append_escaped(out, name);
        out += ": ";
        append_histogram_json(out, h);
    }
    out += "\n  },\n  \"trace\": [";
    first = true;
    for (const auto& e : snap.trace) {
        if (!first) {
            out.push_back(',');
        }
        first = false;
        out += "\n    {\"op\":";
        append_escaped(out, e.op);
        out += ",\"shard\":";
        append_u64(out, e.shard);
        out += ",\"start_ns\":";
        append_u64(out, e.start_ns);
        out += ",\"dur_ns\":";
        append_u64(out, e.dur_ns);
        out += ",\"arg\":";
        append_u64(out, e.arg);
        out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
}

std::string
summary(const Histogram& h)
{
    if (h.count() == 0) {
        return "(no samples)";
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "p50=%.0fns p90=%.0fns p99=%.0fns p99.9=%.0fns",
                  h.percentile(50), h.percentile(90), h.percentile(99),
                  h.percentile(99.9));
    return buf;
}

bool
write_file(const std::string& path, const std::string& contents)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "metrics: cannot open '%s' for writing\n",
                     path.c_str());
        return false;
    }
    std::size_t n = std::fwrite(contents.data(), 1, contents.size(), f);
    bool ok = std::fclose(f) == 0 && n == contents.size();
    if (!ok) {
        std::fprintf(stderr, "metrics: short write to '%s'\n", path.c_str());
    }
    return ok;
}

} // namespace obs
