// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call into a layer's public function, made from the
// benchmark's own code: (layer, start, end, parent span, group id). Each
// thread appends to its own buffer, so recording takes no lock after a
// thread's first span; the buffers are read only after every worker has
// joined (summarize / write_csv run on the calling thread once the traced
// operation returned). A span's self time is its duration minus the
// durations of the child spans opened inside it on the same thread.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Span names. Each is a src/ module (the part after the dot names the
/// public call family inside it).
enum class Layer : std::uint8_t {
  kWorkload,           // DatasetGenerator::generate_group_batched (self)
  kSampler,            // coalesce_batch
  kGoodput,            // evaluate_hd_batch
  kAggIngest,          // RouteWindowAgg::add_session over one batch
  kAggSeriesSave,      // save_group_series
  kAggSeriesLoad,      // load_group_series
  kAggDegradation,     // analyze_degradation_into
  kAggOpportunity,     // analyze_opportunity_into
  kAggClassify,        // WindowColumns::build + classify_temporal x 11
  kAnalysisArtifactRead,  // read_ingest_artifact
  kAnalysisReduce,     // EdgeReducer::reduce_range + finish (wall)
  kStreamReplay,       // replay_group_stream (self = minus deliveries)
  kStreamMachine,      // WindowMachine::on_delivery / flush
  kStreamVerdict,      // evaluate_window_verdict + hash in the seal callback
  kScenarioApply,      // apply_scenario
  kScenarioFootprint,  // affected_groups
  /// Everything the benchmark drives inside one EdgeReducer pool task (the
  /// blob callback); not a layer of its own, it lets the reducer's own
  /// task time be told apart from the work the benchmark added.
  kReduceTask,
  kCount,
};

constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer layer);

struct Span {
  Layer layer{Layer::kWorkload};
  std::int32_t parent{-1};  // index in the same thread's buffer; -1 = top
  std::uint32_t group{0};
  double start{0};  // seconds since the tracer was created
  double end{0};
};

struct TraceSummary {
  std::array<double, kLayerCount> self_s{};
  /// Total duration of reduce-task spans (see Layer::kReduceTask).
  double reduce_task_s{0};
  /// Wall time covered by the union of every span, on any thread.
  double covered_s{0};
  std::uint64_t span_count{0};
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; returns its handle for close().
  int open(Layer layer, std::uint32_t group);
  void close(int handle);

  /// Call only after every thread that recorded spans has finished.
  TraceSummary summarize() const;
  /// Writes one CSV row per span (thread, index, layer, parent, group,
  /// start_s, end_s); false on I/O failure.
  bool write_csv(const std::string& path) const;

 private:
  struct Buffer {
    int thread{0};
    std::vector<Span> spans;
    std::vector<int> open;
  };
  Buffer& local();
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t id_;
  std::mutex mu_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a null tracer records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, std::uint32_t group = 0)
      : tracer_(tracer), handle_(tracer ? tracer->open(layer, group) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int handle_;
};

}  // namespace perfbench
