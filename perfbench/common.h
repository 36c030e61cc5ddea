// Shared pieces of the perfbench driver: a monotonic clock, a flat JSON
// writer, digests and the links writer both modes use.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "kb/collection.h"
#include "matching/matcher.h"
#include "rdf/ntriples.h"

namespace perfbench {

/// Seconds on CLOCK_MONOTONIC (the clock Python's time.monotonic reads), so
/// the Python runner can hand a launch instant to the driver.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One flat JSON object, written field by field.
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value) {
    Key(key);
    if (std::isfinite(value)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out_ << buf;
    } else {
      out_ << "null";
    }
    return *this;
  }
  JsonObject& Int(std::string_view key, uint64_t value) {
    Key(key);
    out_ << value;
    return *this;
  }
  JsonObject& Bool(std::string_view key, bool value) {
    Key(key);
    out_ << (value ? "true" : "false");
    return *this;
  }
  JsonObject& Str(std::string_view key, std::string_view value) {
    Key(key);
    out_ << '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') out_ << '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        out_ << ' ';
      } else {
        out_ << c;
      }
    }
    out_ << '"';
    return *this;
  }
  JsonObject& Array(std::string_view key, const std::vector<double>& values) {
    Key(key);
    out_ << '[';
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", values[i]);
      out_ << (i ? "," : "") << buf;
    }
    out_ << ']';
    return *this;
  }
  JsonObject& Raw(std::string_view key, const std::string& json) {
    Key(key);
    out_ << json;
    return *this;
  }
  std::string str() const { return first_ ? "{}" : out_.str() + "}"; }

 private:
  void Key(std::string_view key) {
    out_ << (first_ ? "{" : ",") << '"' << key << "\":";
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
};

inline uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Median of a copy; 0 for an empty list.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Writes the owl:sameAs links of `matches` after unique-mapping clustering,
/// as `minoan resolve` writes discovered_links.nt. Returns the link count.
inline size_t WriteLinks(std::ostream& out,
                         const minoan::EntityCollection& collection,
                         const std::vector<minoan::MatchEvent>& matches) {
  const auto links = minoan::UniqueMappingClustering(matches, collection);
  minoan::rdf::NTriplesWriter writer(out);
  for (const minoan::MatchEvent& m : links) {
    writer.Write(
        {minoan::rdf::Term::Iri(std::string(collection.EntityIri(m.a))),
         minoan::rdf::Term::Iri(std::string(minoan::rdf::kOwlSameAs)),
         minoan::rdf::Term::Iri(std::string(collection.EntityIri(m.b)))});
  }
  return links.size();
}

/// Entry points of the two driver modes (argv after the mode word).
int RunBatch(int argc, char** argv);
int RunServed(int argc, char** argv);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
