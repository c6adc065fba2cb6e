#include "perfbench/tracer.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kQuery:
      return "query";
    case Layer::kCore:
      return "core";
    case Layer::kUpdate:
      return "core.update";
    case Layer::kCreate:
      return "partition.create";
    case Layer::kServe:
      return "serve";
    case Layer::kCount:
      break;
  }
  return "?";
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::Enable(size_t capacity) {
  enabled_ = true;
  epoch_ns_ = NowNs();
  spans_.reserve(capacity);
  stack_.reserve(kMaxDepth);
}

int64_t Tracer::Keep(const Span& span) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Account(Layer layer, uint64_t dur_ns, uint64_t child_ns) {
  self_ns_[Index(layer)] += dur_ns > child_ns ? dur_ns - child_ns : 0;
  ++count_[Index(layer)];
}

void Tracer::Begin(const char* name, Layer layer, uint64_t request) {
  int64_t parent = stack_.empty() ? -1 : stack_.back().index;
  uint64_t now = NowNs();
  int64_t index = Keep({name, layer, parent, request, now, 0});
  stack_.push_back({index, name, layer, request, now, 0});
}

void Tracer::End() {
  if (stack_.empty()) return;
  Open open = stack_.back();
  stack_.pop_back();
  uint64_t now = NowNs();
  uint64_t dur = now - open.start_ns;
  if (open.index >= 0) spans_[open.index].end_ns = now;
  Account(open.layer, dur, open.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

void Tracer::Record(const char* name, Layer layer, uint64_t request,
                    uint64_t start_ns, uint64_t end_ns) {
  Keep({name, layer, -1, request, start_ns, end_ns});
  Account(layer, end_ns - start_ns, 0);
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"parent\":%lld,"
                 "\"request\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                 i, s.name, LayerName(s.layer),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 (s.start_ns - epoch_ns_) / 1e3, (s.end_ns - epoch_ns_) / 1e3,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
