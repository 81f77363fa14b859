#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_tracer_id{1};

/// The calling thread's buffer for the tracer it last recorded into.
/// Keyed by a process-unique tracer id (not the address), so a later
/// tracer at a reused address never inherits a stale buffer pointer.
struct LocalSlot {
  std::uint64_t tracer{0};
  void* buffer{nullptr};
};
thread_local LocalSlot tls_slot;

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kWorkload: return "workload";
    case Layer::kSampler: return "sampler";
    case Layer::kGoodput: return "goodput";
    case Layer::kAggIngest: return "agg.ingest";
    case Layer::kAggSeriesSave: return "agg.series_save";
    case Layer::kAggSeriesLoad: return "agg.series_load";
    case Layer::kAggDegradation: return "agg.degradation";
    case Layer::kAggOpportunity: return "agg.opportunity";
    case Layer::kAggClassify: return "agg.classify";
    case Layer::kAnalysisArtifactRead: return "analysis.artifact_read";
    case Layer::kAnalysisReduce: return "analysis.reduce";
    case Layer::kStreamReplay: return "stream.replay";
    case Layer::kStreamMachine: return "stream.machine";
    case Layer::kStreamVerdict: return "stream.verdict";
    case Layer::kScenarioApply: return "scenario.apply";
    case Layer::kScenarioFootprint: return "scenario.footprint";
    case Layer::kReduceTask: return "analysis.reduce_task";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()), id_(next_tracer_id.fetch_add(1)) {}

Tracer::Buffer& Tracer::local() {
  if (tls_slot.tracer != id_) {
    auto buffer = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->thread = static_cast<int>(buffers_.size());
    tls_slot = LocalSlot{id_, buffer.get()};
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<Buffer*>(tls_slot.buffer);
}

int Tracer::open(Layer layer, std::uint32_t group) {
  Buffer& b = local();
  Span s;
  s.layer = layer;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.group = group;
  s.start = now();
  const int handle = static_cast<int>(b.spans.size());
  b.spans.push_back(s);
  b.open.push_back(handle);
  return handle;
}

void Tracer::close(int handle) {
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(handle)].end = now();
  b.open.pop_back();
}

TraceSummary Tracer::summarize() const {
  TraceSummary out;
  std::vector<std::pair<double, double>> intervals;
  for (const auto& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans;
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto layer = static_cast<std::size_t>(s.layer);
      out.self_s[layer] += (s.end - s.start) - child_s[i];
      if (s.layer == Layer::kReduceTask) out.reduce_task_s += s.end - s.start;
      if (s.parent < 0) intervals.emplace_back(s.start, s.end);
    }
    out.span_count += spans.size();
  }
  std::sort(intervals.begin(), intervals.end());
  double covered_end = -1;
  for (const auto& [start, end] : intervals) {
    const double from = std::max(start, covered_end);
    if (end > from) out.covered_s += end - from;
    covered_end = std::max(covered_end, end);
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "thread,index,layer,parent,group,start_s,end_s\n");
  for (const auto& buffer : buffers_) {
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& s = buffer->spans[i];
      std::fprintf(f, "%d,%zu,%s,%d,%u,%.9f,%.9f\n", buffer->thread, i,
                   layer_name(s.layer), s.parent, s.group, s.start, s.end);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
