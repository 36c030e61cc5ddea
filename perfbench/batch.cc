// Batch mode: one `minoan resolve` run, in process, from the first corpus
// byte read to the links file closed.
//
//   perfbench_driver batch DIR --out FILE [--threads N] [--budget N]
//       [--memory-budget BYTES --spill-dir DIR] [--trace]
//
// It makes the calls `minoan resolve` makes with CLI defaults (LoadTriples +
// AddKnowledgeBase per file, Finalize, ResolutionSession::Open, Step(0),
// UniqueMappingClustering, NTriplesWriter). With --trace the session records
// its own phase spans (WorkflowOptions::obs.enable_trace) and the driver adds
// spans around the calls it makes outside the session; both Chrome traces go
// into the output, where run.py derives parents and self times from them.
// After the timed Step a traced run replays the step loop's scheduler and
// similarity kernel over the candidates. Either way it prints one JSON line
// of measurements.

#include <filesystem>
#include <fstream>
#include <memory>

#include "common.h"
#include "core/session.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "matching/similarity_evaluator.h"
#include "metablocking/meta_blocking.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "progressive/scheduler.h"
#include "rdf/turtle.h"
#include "util/cli_flags.h"

namespace perfbench {
namespace {

using namespace minoan;  // NOLINT

/// Comparisons per step-loop slice: the progress meter stamps the loop every
/// this many comparisons, and consecutive stamps give one slice latency.
constexpr uint64_t kSliceComparisons = 512;

/// The options `minoan resolve` builds from its flags (CLI defaults: blocker
/// token+pis, threshold 0.35, benefit coverage, filter ratio 0.8).
WorkflowOptions ResolveOptions(const cli::Flags& flags) {
  WorkflowOptions options;
  options.progressive.matcher.threshold = 0.35;
  options.progressive.matcher.budget = flags.GetInt("budget", 0);
  options.progressive.benefit = BenefitModel::kEntityCoverage;
  options.blocker = BlockerChoice::kTokenPlusPis;
  options.memory.shuffle_budget_bytes = flags.GetByteSize("memory-budget", 0);
  options.memory.spill_dir = flags.Get("spill-dir", "");
  options.num_threads = static_cast<uint32_t>(flags.GetInt("threads", 1));
  options.obs.progress_every = kSliceComparisons;
  return options;
}

std::vector<std::string> RdfFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".nt" || ext == ".ttl" || ext == ".turtle") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Stamps every confirmed match with its wall time since the run began.
class MatchClock : public MatchObserver {
 public:
  explicit MatchClock(double origin) : origin_(origin) {}
  void OnMatch(const MatchEvent&) override {
    stamps_.push_back(NowSeconds() - origin_);
  }
  /// Time at which half of `final_matches` had been confirmed.
  double HalfTime(size_t final_matches) const {
    if (final_matches == 0 || stamps_.size() < final_matches) return 0;
    return stamps_[(final_matches + 1) / 2 - 1];
  }

 private:
  double origin_;
  std::vector<double> stamps_;
};

/// Latencies of consecutive kSliceComparisons-comparison slices of the step
/// loop, from the progress meter's stamps. The first stamp is skipped: its
/// interval starts before Begin.
std::vector<double> SliceMillis(const std::vector<obs::ProgressSample>& s) {
  std::vector<double> out;
  for (size_t i = 1; i < s.size(); ++i) {
    if (s[i].comparisons - s[i - 1].comparisons != kSliceComparisons) continue;
    out.push_back(s[i].elapsed_ms - s[i - 1].elapsed_ms);
  }
  return out;
}

std::string FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return Hex(Fnv1a(bytes.str()));
}

uint64_t Counter(const obs::StatsSnapshot& snap, std::string_view name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

/// A Chrome trace as one line, for embedding in the output record.
template <typename Writer>
std::string TraceJson(Writer&& write) {
  std::ostringstream out;
  write(out);
  std::string json = out.str();
  while (!json.empty() && json.back() == '\n') json.pop_back();
  return json;
}

/// Everything one run measured.
struct RunRecord {
  double wall_s = 0;
  double setup_s = 0;
  double t50_s = 0;
  uint64_t comparisons = 0;
  std::vector<MatchEvent> matches;
  std::vector<double> slices_ms;
  size_t links = 0;
  JsonObject layers;  // traced run only
  /// Kept for scoring after the run; heap-held so the session's reference
  /// survives the hand-over.
  std::unique_ptr<EntityCollection> collection;
};

/// Loads every RDF file into a finalized collection, with a span around each
/// library call when `trace` is set.
Result<EntityCollection> Load(const std::vector<std::string>& files,
                              obs::TraceRecorder* trace,
                              uint64_t* triples_read) {
  EntityCollection collection;
  for (const std::string& file : files) {
    Result<std::vector<rdf::Triple>> triples = [&] {
      obs::PhaseSpan span(trace, "rdf.parse");
      return rdf::LoadTriples(file);
    }();
    if (!triples.ok()) return triples.status();
    *triples_read += triples->size();
    obs::PhaseSpan span(trace, "kb.build");
    const std::string name = std::filesystem::path(file).stem().string();
    MINOAN_RETURN_IF_ERROR(
        collection.AddKnowledgeBase(name, *triples).status());
  }
  {
    obs::PhaseSpan span(trace, "kb.build");
    MINOAN_RETURN_IF_ERROR(collection.Finalize());
  }
  return collection;
}

/// The meta-blocking candidates Open scheduled, rebuilt after the run through
/// the public batch functions, in memory on one thread; by the determinism
/// contract these are the same pairs and weights.
Result<std::vector<WeightedComparison>> Candidates(
    const EntityCollection& collection, WorkflowOptions options) {
  options.memory = {};
  options.num_threads = 1;
  MINOAN_ASSIGN_OR_RETURN(BlockCollection blocks,
                          MinoanEr(options).BuildBlocks(collection));
  return MetaBlocking(options.meta).Prune(blocks, collection);
}

/// Prices the step loop's two kernels by replaying them over the candidates:
/// ComparisonScheduler Push/Pop and SimilarityEvaluator::Similarity.
Status ReplayStepLoop(const EntityCollection& collection,
                      const WorkflowOptions& options,
                      const ResolutionReport& report, JsonObject& layers) {
  MINOAN_ASSIGN_OR_RETURN(const std::vector<WeightedComparison> candidates,
                          Candidates(collection, options));
  uint64_t pops = 0;
  uint64_t pop_checksum = 0;
  const double sched_start = NowSeconds();
  {
    ComparisonScheduler scheduler;
    for (const WeightedComparison& c : candidates) {
      scheduler.Push(PairKey(c.a, c.b), c.weight);
    }
    uint64_t pair = 0;
    double priority = 0;
    while (scheduler.Pop(pair, priority)) {
      ++pops;
      pop_checksum = pop_checksum * 31 + pair;
    }
  }
  const double sched_s = NowSeconds() - sched_start;
  const SimilarityEvaluator evaluator(collection, options.similarity);
  double sim_checksum = 0;
  const double sim_start = NowSeconds();
  for (const WeightedComparison& c : candidates) {
    sim_checksum += evaluator.Similarity(c.a, c.b);
  }
  const double sim_s = NowSeconds() - sim_start;
  const uint64_t sched_ops = candidates.size() + pops;
  layers.Num("scheduler.ns_per_op", sched_ops ? sched_s * 1e9 / sched_ops : 0)
      .Num("similarity.ns_per_pair",
           candidates.empty() ? 0 : sim_s * 1e9 / candidates.size())
      .Num("similarity.checksum", sim_checksum)
      .Str("scheduler.pop_checksum", Hex(pop_checksum))
      .Bool("guard.replay_candidates",
            candidates.size() == report.comparisons_after_meta)
      .Bool("guard.pops_equal_candidates", pops == candidates.size())
      .Bool("guard.checksum_finite",
            std::isfinite(sim_checksum) && sim_checksum > 0);
  return Status::Ok();
}

/// The calls `minoan resolve` makes. With `trace` the session records its
/// phase spans and the driver spans the calls outside it; after the timed
/// Step the step loop is replayed.
Status RunSession(const std::vector<std::string>& files,
                  WorkflowOptions options, const std::string& out,
                  obs::TraceRecorder* trace, RunRecord* rec) {
  options.obs.enable_trace = trace != nullptr;
  const double t0 = NowSeconds();
  auto root = std::make_unique<obs::PhaseSpan>(trace, "run");
  uint64_t triples = 0;
  MINOAN_ASSIGN_OR_RETURN(EntityCollection loaded,
                          Load(files, trace, &triples));
  rec->collection = std::make_unique<EntityCollection>(std::move(loaded));
  const EntityCollection& collection = *rec->collection;
  MatchClock clock(t0);
  // The session's trace starts its own clock inside Open; run.py places its
  // spans on the driver's timeline at this instant.
  const uint64_t open_call_us = trace ? trace->NowMicros() : 0;
  MINOAN_ASSIGN_OR_RETURN(ResolutionSession session,
                          ResolutionSession::Open(collection, options, &clock));
  rec->setup_s = NowSeconds() - t0;
  const uint64_t pushes_at_begin =
      trace ? session.Report().progressive.scheduler_pushes : 0;
  const StepResult step = session.Step(0);
  const ResolutionReport report = session.Report();
  {
    obs::PhaseSpan span(trace, "output.write");
    std::ofstream stream(out);
    rec->links = WriteLinks(stream, collection, report.progressive.run.matches);
    stream.close();
    if (!stream) return Status::IoError("cannot write " + out);
  }
  root.reset();
  rec->wall_s = NowSeconds() - t0;
  rec->comparisons = report.progressive.run.comparisons_executed;
  rec->matches = report.progressive.run.matches;
  rec->slices_ms = SliceMillis(report.progress);
  rec->t50_s = clock.HalfTime(rec->matches.size());
  if (trace == nullptr) return Status::Ok();

  const obs::StatsReport stats = session.Stats();
  const uint64_t aggregate = report.comparisons_before_meta;
  const uint64_t candidates = report.comparisons_after_meta;
  // Scheduler operations of the timed Step: its own pushes, plus one pop per
  // heap entry it drained (all of them when the queue ran dry).
  const uint64_t pushes = report.progressive.scheduler_pushes;
  const uint64_t step_pushes = pushes - pushes_at_begin;
  const uint64_t step_pops =
      step.exhausted ? pushes : rec->comparisons + step_pushes;
  JsonObject& L = rec->layers;
  L.Int("rdf.triples", triples)
      .Int("kb.descriptions", collection.num_entities())
      .Int("blocking.blocks", report.blocks_after_cleaning)
      .Int("blocking.comparisons", aggregate)
      .Int("extmem.spill_bytes", Counter(stats.metrics, "spill.bytes"))
      .Int("extmem.runs", Counter(stats.metrics, "spill.runs"))
      .Int("extmem.cascade_merges",
           Counter(stats.metrics, "spill.cascade_merges"))
      .Int("metablocking.candidates", candidates)
      .Num("metablocking.retained_frac",
           aggregate ? static_cast<double>(candidates) / aggregate : 0)
      .Int("progressive.comparisons", rec->comparisons)
      .Int("progressive.matches", rec->matches.size())
      .Num("progressive.match_yield",
           rec->comparisons
               ? static_cast<double>(rec->matches.size()) / rec->comparisons
               : 0)
      .Int("step.scheduler_ops", step_pushes + step_pops)
      .Int("pool.tasks", stats.pool.tasks_executed)
      .Num("pool.busy_s", stats.pool.TotalBusyMicros() * 1e-6)
      .Num("pool.queue_wait_s", stats.pool.queue_wait_micros * 1e-6);
  MINOAN_RETURN_IF_ERROR(ReplayStepLoop(collection, options, report, L));
  L.Raw("trace",
        JsonObject()
            .Int("open_call_us", open_call_us)
            .Raw("driver", TraceJson([&](std::ostream& o) {
                   trace->WriteChromeTrace(o);
                 }))
            .Raw("session", TraceJson([&](std::ostream& o) {
                   session.WriteTraceJson(o);
                 }))
            .str());
  return Status::Ok();
}

}  // namespace

int RunBatch(int argc, char** argv) {
  const cli::Flags flags(argc, argv, 1);
  const std::vector<std::string> unknown = flags.UnknownFlags(
      {"out", "threads", "budget", "memory-budget", "spill-dir", "trace"});
  if (flags.positional().size() != 1 || !unknown.empty() ||
      !flags.Has("out")) {
    std::fprintf(stderr,
                 "usage: perfbench_driver batch DIR --out FILE [--threads N] "
                 "[--budget N] [--memory-budget B --spill-dir D] [--trace]\n");
    return 2;
  }
  const std::string dir = flags.positional()[0];
  const std::string out = flags.Get("out", "");
  const WorkflowOptions options = ResolveOptions(flags);
  if (Status st = options.Validate(); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 2;
  }
  const std::vector<std::string> files = RdfFiles(dir);
  if (files.empty()) {
    std::fprintf(stderr, "error: no RDF files in %s\n", dir.c_str());
    return 1;
  }
  RunRecord rec;
  obs::TraceRecorder trace;
  const Status status = RunSession(
      files, options, out, flags.Has("trace") ? &trace : nullptr, &rec);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  const uint64_t peak_rss = obs::PeakRssBytes();

  // Scoring happens after the links file closed, outside wall_s.
  auto truth =
      GroundTruth::FromTsv(dir + "/ground_truth.tsv", *rec.collection);
  if (!truth.ok()) {
    std::fprintf(stderr, "error: %s\n", truth.status().ToString().c_str());
    return 1;
  }
  const MatchingMetrics quality = EvaluateMatches(rec.matches, *truth);

  JsonObject json;
  json.Num("wall_s", rec.wall_s)
      .Num("setup_s", rec.setup_s)
      .Num("t50_s", rec.t50_s)
      .Num("peak_rss_mb", peak_rss / 1048576.0)
      .Num("recall", quality.recall)
      .Num("precision", quality.precision)
      .Int("comparisons", rec.comparisons)
      .Int("matches", rec.matches.size())
      .Int("links", rec.links)
      .Str("digest", FileDigest(out))
      .Raw("layers", rec.layers.str())
      .Array("slices_ms", rec.slices_ms);
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace perfbench
