// Served mode: closed-loop traffic against a running `minoan serve`.
//
//   perfbench_driver served --port N --seed S --seconds T --t0 SECONDS
//       [--setup-only K]
//
// One process, four connections, no think time. Three online tenants repeat
// Ingest(8 descriptions) → ResolveBudget(2048) → 4 × Query(k=5) and recycle
// their session every kCyclesPerSession cycles; a batch tenant creates a
// session over a `synthetic:` source, repeats Step(1024) + Matches(since)
// until it finishes, closes it and reconnects. `--t0` is the daemon's launch
// instant on CLOCK_MONOTONIC; setup ends once every tenant's first session
// exists. `--setup-only K` stops there, with the batch tenant's first session
// over the K-th of its rotated sources. After the window the driver replays the same request sequences in
// process (OnlineResolver, ResolutionSession) to check every reply and to
// price the in-process side of each request. Prints one JSON line.

#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "core/session.h"
#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "matching/matcher.h"
#include "online/incremental_collection.h"
#include "online/online_resolver.h"
#include "rdf/ntriples.h"
#include "server/client.h"
#include "server/session_manager.h"
#include "util/cli_flags.h"

namespace perfbench {
namespace {

using namespace minoan;  // NOLINT
using server::Client;
using server::SessionKind;

constexpr int kOnlineTenants = 3;
constexpr size_t kDescriptionsPerIngest = 8;
constexpr uint64_t kResolveBudget = 2048;
constexpr int kQueriesPerCycle = 4;
constexpr uint32_t kQueryK = 5;
constexpr size_t kCyclesPerSession = 48;
constexpr uint64_t kStepBudget = 1024;
constexpr double kThreshold = 0.35;
/// Batch tenant corpora: synthetic:<seed>:<entities>:<kbs>:<center>; the
/// tenant's sessions rotate over kBatchSources of them.
constexpr uint32_t kBatchEntities = 3000;
constexpr int kBatchSources = 4;
constexpr uint32_t kBatchKbs = 24;
constexpr uint32_t kBatchCenter = 8;
/// Online tenants' description streams: each tenant rotates its sessions
/// over kStreamsPerTenant streams drawn from distinct generated clouds.
constexpr uint32_t kStreamEntities = 400;
constexpr int kStreamsPerTenant = 4;

struct Ingest {
  std::string kb;
  std::string document;
};

/// One online tenant's request stream: kCyclesPerSession ingests of
/// kDescriptionsPerIngest descriptions, round-robin over the KBs of a
/// generated cloud.
Result<std::vector<Ingest>> OnlineStream(uint64_t seed) {
  datagen::LodCloudConfig config;
  config.seed = seed;
  config.num_real_entities = kStreamEntities;
  config.num_kbs = 4;
  config.center_kbs = 2;
  MINOAN_ASSIGN_OR_RETURN(datagen::LodCloud cloud,
                          datagen::GenerateLodCloud(config));
  std::vector<std::vector<std::vector<rdf::Triple>>> per_kb;
  for (const datagen::GeneratedKb& kb : cloud.kbs) {
    per_kb.push_back(online::GroupBySubject(kb.triples));
  }
  std::vector<Ingest> stream;
  std::vector<size_t> next(per_kb.size(), 0);
  for (size_t i = 0; stream.size() < kCyclesPerSession; ++i) {
    const size_t kb = i % per_kb.size();
    if (next[kb] + kDescriptionsPerIngest > per_kb[kb].size()) {
      if (i > 64 * kCyclesPerSession) {
        return Status::Internal("description stream too short");
      }
      continue;
    }
    Ingest ingest{cloud.kbs[kb].name, ""};
    for (size_t d = 0; d < kDescriptionsPerIngest; ++d) {
      for (const rdf::Triple& t : per_kb[kb][next[kb]++]) {
        ingest.document += t.ToNTriples();
        ingest.document += '\n';
      }
    }
    stream.push_back(std::move(ingest));
  }
  return stream;
}

/// The k-th batch corpus of a run; its `synthetic:` source names the same
/// generator configuration.
datagen::LodCloudConfig BatchCloud(uint64_t seed, int k) {
  datagen::LodCloudConfig config;
  config.seed = seed * kBatchSources + k;
  config.num_real_entities = kBatchEntities;
  config.num_kbs = kBatchKbs;
  config.center_kbs = kBatchCenter;
  return config;
}

std::string SyntheticSource(const datagen::LodCloudConfig& c) {
  return "synthetic:" + std::to_string(c.seed) + ":" +
         std::to_string(c.num_real_entities) + ":" + std::to_string(c.num_kbs) +
         ":" + std::to_string(c.center_kbs);
}

using Reply = std::vector<online::QueryCandidate>;

/// What one online session saw, for the replay check.
struct OnlineSessionLog {
  size_t cycles = 0;
  std::vector<std::vector<EntityId>> ids;  // per cycle
  std::vector<Reply> replies;              // per query, in order
  std::string links;
};

struct BatchSessionLog {
  size_t source = 0;  // index into the rotated sources
  bool finished = false;
  double wall_s = 0;
  double t50_s = 0;
  std::vector<MatchEvent> matches;
};

/// Latency samples (milliseconds) and counters shared by the four tenants.
struct Samples {
  std::mutex mu;
  std::vector<double> ingest, query, resolve, step, create;
  uint64_t requests = 0;  // completed inside the window
  uint64_t failed = 0;
  uint64_t invalid_replies = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

class Window {
 public:
  explicit Window(double seconds) : end_(NowSeconds() + seconds) {}
  bool open() const { return NowSeconds() < end_; }

 private:
  double end_;
};

/// Times one request; the sample is kept only when it completed inside the
/// window.
template <typename Fn>
auto Timed(const Window& window, std::vector<double>& out, uint64_t& count,
           Fn&& fn) {
  const double start = NowSeconds();
  auto result = fn();
  const double end = NowSeconds();
  if (window.open()) {
    out.push_back((end - start) * 1e3);
    ++count;
  }
  return result;
}

/// Checks the reply invariants: ids known to the session, scores in [0, 1],
/// sorted by descending score (ties by ascending id).
bool ValidReply(const Reply& reply, size_t num_entities) {
  for (size_t i = 0; i < reply.size(); ++i) {
    const auto& c = reply[i];
    if (c.id >= num_entities || !(c.similarity >= 0.0 && c.similarity <= 1.0)) {
      return false;
    }
    if (i > 0) {
      const auto& p = reply[i - 1];
      if (p.similarity < c.similarity ||
          (p.similarity == c.similarity && p.id >= c.id)) {
        return false;
      }
    }
  }
  return true;
}

void OnlineTenant(int tenant, uint64_t first_session,
                  std::unique_ptr<Client> client,
                  const std::vector<std::vector<Ingest>>& streams,
                  const Window& window, Samples& samples,
                  std::vector<std::vector<OnlineSessionLog>>& logs) {
  const std::string name = "online-" + std::to_string(tenant);
  std::vector<double> ingest, query, resolve;
  uint64_t requests = 0;
  uint64_t invalid = 0;
  uint64_t session = first_session;
  for (size_t n = 0;; ++n) {
    const std::vector<Ingest>& stream = streams[n % streams.size()];
    OnlineSessionLog log;
    size_t entities = 0;
    for (size_t cycle = 0; cycle < kCyclesPerSession && window.open();
         ++cycle) {
      auto ids = Timed(window, ingest, requests, [&] {
        return client->Ingest(session, stream[cycle].kb,
                              stream[cycle].document);
      });
      if (!ids.ok()) return samples.Fail(name + " ingest: " + ids.status().ToString());
      entities += ids->size();
      auto step = Timed(window, resolve, requests, [&] {
        return client->ResolveBudget(session, kResolveBudget);
      });
      if (!step.ok()) return samples.Fail(name + " resolve: " + step.status().ToString());
      for (int q = 0; q < kQueriesPerCycle; ++q) {
        const EntityId entity = (*ids)[(2 * q) % ids->size()];
        auto reply = Timed(window, query, requests, [&] {
          return client->Query(session, entity, kQueryK);
        });
        if (!reply.ok()) return samples.Fail(name + " query: " + reply.status().ToString());
        if (!ValidReply(*reply, entities)) ++invalid;
        log.replies.push_back(std::move(*reply));
      }
      log.ids.push_back(std::move(*ids));
      log.cycles = cycle + 1;
    }
    auto links = client->Links(session);
    if (!links.ok()) return samples.Fail(name + " links: " + links.status().ToString());
    log.links = std::move(*links);
    if (Status st = client->Close(session); !st.ok()) {
      return samples.Fail(name + " close: " + st.ToString());
    }
    logs[n % streams.size()].push_back(std::move(log));
    if (!window.open()) break;
    auto id = client->CreateSession(name, SessionKind::kOnline, "", kThreshold);
    if (!id.ok()) return samples.Fail(name + " create: " + id.status().ToString());
    session = *id;
  }
  std::lock_guard<std::mutex> lock(samples.mu);
  samples.ingest.insert(samples.ingest.end(), ingest.begin(), ingest.end());
  samples.query.insert(samples.query.end(), query.begin(), query.end());
  samples.resolve.insert(samples.resolve.end(), resolve.begin(), resolve.end());
  samples.requests += requests;
  samples.invalid_replies += invalid;
}

void BatchTenant(uint16_t port, uint64_t first_session,
                 std::unique_ptr<Client> client,
                 const std::vector<std::string>& sources,
                 double first_create_ms, const Window& window,
                 Samples& samples, std::vector<BatchSessionLog>& logs) {
  std::vector<double> step_ms, create_ms{first_create_ms};
  uint64_t requests = 0;
  uint64_t session = first_session;
  double created_at = NowSeconds() - first_create_ms * 1e-3;
  for (size_t n = 0;; ++n) {
    BatchSessionLog log;
    log.source = n % sources.size();
    std::vector<double> arrivals;
    while (window.open()) {
      auto reply = Timed(window, step_ms, requests, [&]() -> Result<uint64_t> {
        auto step = client->Step(session, kStepBudget);
        if (!step.ok()) return step.status();
        auto matches = client->Matches(session, log.matches.size());
        if (!matches.ok()) return matches.status();
        const double now = NowSeconds() - created_at;
        for (MatchEvent& m : *matches) {
          log.matches.push_back(m);
          arrivals.push_back(now);
        }
        return step->finished ? 1 : 0;
      });
      if (!reply.ok()) return samples.Fail("batch step: " + reply.status().ToString());
      if (*reply == 1) {
        log.finished = true;
        break;
      }
    }
    if (log.finished && !arrivals.empty()) {
      log.t50_s = arrivals[(arrivals.size() + 1) / 2 - 1];
    }
    if (Status st = client->Close(session); !st.ok()) {
      return samples.Fail("batch close: " + st.ToString());
    }
    if (log.finished) log.wall_s = NowSeconds() - created_at;
    logs.push_back(std::move(log));
    if (!window.open()) break;
    // Connection churn: every batch session gets a fresh connection.
    client.reset();
    auto fresh = Client::Connect("127.0.0.1", port);
    if (!fresh.ok()) return samples.Fail("batch connect: " + fresh.status().ToString());
    client = std::move(*fresh);
    created_at = NowSeconds();
    auto id = Timed(window, create_ms, requests, [&] {
      return client->CreateSession("batch", SessionKind::kBatch,
                                   sources[(n + 1) % sources.size()],
                                   kThreshold);
    });
    if (!id.ok()) return samples.Fail("batch create: " + id.status().ToString());
    session = *id;
  }
  std::lock_guard<std::mutex> lock(samples.mu);
  samples.step.insert(samples.step.end(), step_ms.begin(), step_ms.end());
  samples.create.insert(samples.create.end(), create_ms.begin(),
                        create_ms.end());
  samples.requests += requests;
}

bool SameReply(const Reply& a, const Reply& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].similarity != b[i].similarity ||
        a[i].matched != b[i].matched) {
      return false;
    }
  }
  return true;
}

std::string LinksText(const online::OnlineResolver& engine) {
  std::ostringstream text;
  WriteLinks(text, engine.collection(), engine.run().matches);
  return text.str();
}

/// In-process timings of one tenant's request sequence.
struct ReplayTimes {
  std::vector<double> ingest_us, query_us, resolve_us;
  double resolve_s = 0;
  uint64_t resolve_comparisons = 0;
};

/// Replays one online tenant's stream in process and checks every served
/// session against it. Returns the number of mismatches.
uint64_t CheckOnline(const std::vector<Ingest>& stream,
                     const std::vector<OnlineSessionLog>& logs,
                     ReplayTimes& times, std::string& error) {
  size_t cycles = 0;
  for (const auto& log : logs) cycles = std::max(cycles, log.cycles);
  online::OnlineOptions options;
  options.matcher.threshold = kThreshold;
  online::OnlineResolver engine(options);
  std::vector<std::vector<EntityId>> ids(cycles);
  std::vector<Reply> replies;
  std::map<size_t, std::string> links_at;  // cycle count -> links text
  links_at[0] = LinksText(engine);
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    double start = NowSeconds();
    auto triples = rdf::NTriplesParser().ParseString(stream[cycle].document);
    if (!triples.ok()) {
      error = triples.status().ToString();
      return 1;
    }
    const uint32_t kb = engine.EnsureKb(stream[cycle].kb);
    for (const auto& group : online::GroupBySubject(*triples)) {
      auto id = engine.Ingest(kb, group);
      if (!id.ok()) {
        error = id.status().ToString();
        return 1;
      }
      ids[cycle].push_back(*id);
    }
    times.ingest_us.push_back((NowSeconds() - start) * 1e6);
    start = NowSeconds();
    const StepResult step = engine.ResolveBudget(kResolveBudget);
    times.resolve_s += NowSeconds() - start;
    times.resolve_us.push_back((NowSeconds() - start) * 1e6);
    times.resolve_comparisons += step.comparisons;
    for (int q = 0; q < kQueriesPerCycle; ++q) {
      const EntityId entity = ids[cycle][(2 * q) % ids[cycle].size()];
      start = NowSeconds();
      replies.push_back(engine.Query(entity, kQueryK));
      times.query_us.push_back((NowSeconds() - start) * 1e6);
    }
    links_at[cycle + 1] = LinksText(engine);
  }
  uint64_t mismatches = 0;
  for (const auto& log : logs) {
    for (size_t c = 0; c < log.cycles; ++c) {
      if (log.ids[c] != ids[c]) ++mismatches;
    }
    for (size_t q = 0; q < log.replies.size(); ++q) {
      if (!SameReply(log.replies[q], replies[q])) ++mismatches;
    }
    if (log.links != links_at[log.cycles]) ++mismatches;
  }
  if (mismatches > 0 && error.empty()) error = "online replay mismatch";
  return mismatches;
}

bool SameMatch(const MatchEvent& a, const MatchEvent& b) {
  return a.a == b.a && a.b == b.b && a.comparisons_done == b.comparisons_done &&
         a.similarity == b.similarity;
}

}  // namespace

int RunServed(int argc, char** argv) {
  const cli::Flags flags(argc, argv, 1);
  if (!flags.UnknownFlags({"port", "seed", "seconds", "t0", "setup-only"})
           .empty() ||
      !flags.Has("port") || !flags.Has("t0")) {
    std::fprintf(stderr,
                 "usage: perfbench_driver served --port N --seed S "
                 "--seconds T --t0 SECONDS [--setup-only K]\n");
    return 2;
  }
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 0));
  const uint64_t seed = flags.GetInt("seed", 1);
  const double seconds = flags.GetDouble("seconds", 10);
  const double t0 = flags.GetDouble("t0", 0);
  std::vector<std::string> sources;
  for (int k = 0; k < kBatchSources; ++k) {
    sources.push_back(SyntheticSource(BatchCloud(seed, k)));
  }

  // ---- Setup: the daemon answers Ping and every tenant's session exists ---
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c <= kOnlineTenants; ++c) {
    auto client = Client::Connect("127.0.0.1", port);
    if (!client.ok() || !(*client)->Ping().ok()) {
      std::fprintf(stderr, "error: cannot reach the daemon on port %u\n",
                   static_cast<unsigned>(port));
      return 1;
    }
    clients.push_back(std::move(*client));
  }
  std::vector<uint64_t> first(kOnlineTenants + 1);
  for (int t = 0; t < kOnlineTenants; ++t) {
    auto id = clients[t]->CreateSession("online-" + std::to_string(t),
                                        SessionKind::kOnline, "", kThreshold);
    if (!id.ok()) {
      std::fprintf(stderr, "error: %s\n", id.status().ToString().c_str());
      return 1;
    }
    first[t] = *id;
  }
  const double create_start = NowSeconds();
  auto batch_id = clients[kOnlineTenants]->CreateSession(
      "batch", SessionKind::kBatch,
      sources[flags.GetInt("setup-only", 0) % kBatchSources], kThreshold);
  const double setup_end = NowSeconds();
  if (!batch_id.ok()) {
    std::fprintf(stderr, "error: %s\n", batch_id.status().ToString().c_str());
    return 1;
  }
  first[kOnlineTenants] = *batch_id;
  const double setup_s = setup_end - t0;
  if (flags.Has("setup-only")) {
    std::printf("%s\n", JsonObject().Num("setup_s", setup_s).str().c_str());
    return 0;
  }

  // ---- Closed-loop traffic ------------------------------------------------
  // The request streams are made after setup, so setup_s times the daemon.
  std::vector<std::vector<std::vector<Ingest>>> streams(kOnlineTenants);
  for (int t = 0; t < kOnlineTenants; ++t) {
    for (int k = 0; k < kStreamsPerTenant; ++k) {
      auto stream = OnlineStream(seed * 64 + t * kStreamsPerTenant + k + 1);
      if (!stream.ok()) {
        std::fprintf(stderr, "error: %s\n", stream.status().ToString().c_str());
        return 1;
      }
      streams[t].push_back(std::move(*stream));
    }
  }
  Samples samples;
  std::vector<std::vector<std::vector<OnlineSessionLog>>> online_logs(
      kOnlineTenants,
      std::vector<std::vector<OnlineSessionLog>>(kStreamsPerTenant));
  std::vector<BatchSessionLog> batch_logs;
  const double window_start = NowSeconds();
  const Window window(seconds);
  std::vector<std::thread> threads;
  for (int t = 0; t < kOnlineTenants; ++t) {
    threads.emplace_back(OnlineTenant, t, first[t], std::move(clients[t]),
                         std::cref(streams[t]), std::cref(window),
                         std::ref(samples), std::ref(online_logs[t]));
  }
  threads.emplace_back(BatchTenant, port, first[kOnlineTenants],
                       std::move(clients[kOnlineTenants]), std::cref(sources),
                       (setup_end - create_start) * 1e3, std::cref(window),
                       std::ref(samples), std::ref(batch_logs));
  for (std::thread& t : threads) t.join();
  const double window_s = std::min(NowSeconds() - window_start, seconds);

  // ---- Replays: correctness and the in-process side of each request ------
  uint64_t mismatches = 0;
  std::string error;
  ReplayTimes online_times;
  for (int t = 0; t < kOnlineTenants; ++t) {
    for (int k = 0; k < kStreamsPerTenant; ++k) {
      mismatches += CheckOnline(streams[t][k], online_logs[t][k],
                                online_times, error);
    }
  }
  // The batch tenant's expected match streams, and pair quality summed over
  // the rotated corpora.
  std::vector<std::vector<MatchEvent>> expected_by_source;
  std::vector<double> inproc_step_us;
  MatchingMetrics quality;
  uint64_t truth_pairs = 0;
  for (int k = 0; k < kBatchSources; ++k) {
    auto collection = server::LoadCorpus(sources[k]);
    if (!collection.ok()) return 1;
    WorkflowOptions options;
    options.progressive.matcher.threshold = kThreshold;
    auto session = ResolutionSession::Open(*collection, options);
    if (!session.ok()) return 1;
    std::vector<MatchEvent> expected;
    while (!session->finished()) {
      const double start = NowSeconds();
      StepResult step = session->Step(kStepBudget);
      inproc_step_us.push_back((NowSeconds() - start) * 1e6);
      expected.insert(expected.end(), step.matches.begin(), step.matches.end());
    }
    auto cloud = datagen::GenerateLodCloud(BatchCloud(seed, k));
    if (!cloud.ok()) return 1;
    auto truth = GroundTruth::FromCloud(*cloud, *collection);
    if (!truth.ok()) return 1;
    const MatchingMetrics m = EvaluateMatches(expected, *truth);
    quality.emitted += m.emitted;
    quality.correct += m.correct;
    truth_pairs += truth->num_pairs();
    expected_by_source.push_back(std::move(expected));
  }
  quality.precision =
      quality.emitted ? static_cast<double>(quality.correct) / quality.emitted
                      : 0;
  quality.recall =
      truth_pairs ? static_cast<double>(quality.correct) / truth_pairs : 0;
  std::vector<double> wall, t50;
  for (const BatchSessionLog& log : batch_logs) {
    const std::vector<MatchEvent>& expected = expected_by_source[log.source];
    bool same = log.matches.size() <= expected.size() &&
                (!log.finished || log.matches.size() == expected.size());
    for (size_t i = 0; same && i < log.matches.size(); ++i) {
      same = SameMatch(log.matches[i], expected[i]);
    }
    if (!same) {
      ++mismatches;
      if (error.empty()) error = "batch match stream mismatch";
    }
    if (log.finished) {
      wall.push_back(log.wall_s);
      t50.push_back(log.t50_s);
    }
  }
  const auto us = [](const std::vector<double>& ms) { return Median(ms) * 1e3; };
  const uint64_t attempted =
      samples.ingest.size() + samples.query.size() + samples.resolve.size() +
      samples.step.size() + samples.create.size();
  JsonObject json;
  json.Num("setup_s", setup_s)
      .Num("window_s", window_s)
      .Int("requests", samples.requests)
      .Int("attempted", attempted)
      .Int("failed", samples.failed + samples.invalid_replies + mismatches)
      .Int("invalid_replies", samples.invalid_replies)
      .Int("mismatches", mismatches)
      .Str("error", samples.errors.empty() ? error : samples.errors.front())
      .Int("batch_sessions_finished", wall.size())
      .Int("batch_sessions", batch_logs.size())
      .Num("recall", quality.recall)
      .Num("precision", quality.precision)
      .Array("wall_s", wall)
      .Array("t50_s", t50)
      .Array("ingest_ms", samples.ingest)
      .Array("query_ms", samples.query)
      .Array("resolve_ms", samples.resolve)
      .Array("step_ms", samples.step)
      .Array("create_ms", samples.create)
      .Num("online.ingest_us", Median(online_times.ingest_us))
      .Num("online.query_us", Median(online_times.query_us))
      .Num("online.resolve_ns_per_comparison",
           online_times.resolve_comparisons
               ? online_times.resolve_s * 1e9 / online_times.resolve_comparisons
               : 0)
      .Num("server.ingest_overhead_us",
           us(samples.ingest) - Median(online_times.ingest_us))
      .Num("server.query_overhead_us",
           us(samples.query) - Median(online_times.query_us))
      .Num("server.resolve_overhead_us",
           us(samples.resolve) - Median(online_times.resolve_us))
      .Num("server.step_overhead_us",
           us(samples.step) - Median(inproc_step_us));
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace perfbench
