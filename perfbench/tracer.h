// In-memory span recorder of the traced run. Spans are recorded from the
// benchmark's own code, around its calls into each layer of the program:
// one root span per operation, one span per access-method call made
// through CountingAm, one for Create, and one per served request from
// Submit to ticket completion. Per-layer totals and self times (a span's
// duration minus the time its child spans cover) are kept online; the
// first `capacity` spans are also kept and written out at exit.
//
// Begin/End run inside the program's allocation-counting window, so they
// never allocate: the span buffer and the open-span stack are reserved up
// front by Enable().
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : int { kQuery, kCore, kUpdate, kCreate, kServe, kCount };

const char* LayerName(Layer layer);

/// Nanoseconds on the steady clock.
uint64_t NowNs();

class Tracer {
 public:
  void Enable(size_t capacity);
  bool enabled() const { return enabled_; }

  /// Nested spans on the client thread.
  void Begin(const char* name, Layer layer, uint64_t request);
  void End();

  /// A span known only by its ends (a served request, which other
  /// threads execute), with no parent and no children.
  void Record(const char* name, Layer layer, uint64_t request,
              uint64_t start_ns, uint64_t end_ns);

  uint64_t self_ns(Layer l) const { return self_ns_[Index(l)]; }
  uint64_t count(Layer l) const { return count_[Index(l)]; }
  uint64_t dropped() const { return dropped_; }
  size_t kept() const { return spans_.size(); }

  /// Writes the kept spans as a JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Layer layer;
    int64_t parent;  // index into spans_, -1 for a root or a dropped parent
    uint64_t request;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  struct Open {
    int64_t index;  // -1 when the buffer was full
    const char* name;
    Layer layer;
    uint64_t request;
    uint64_t start_ns;
    uint64_t child_ns;
  };
  static int Index(Layer l) { return static_cast<int>(l); }
  int64_t Keep(const Span& span);
  void Account(Layer layer, uint64_t dur_ns, uint64_t child_ns);

  static constexpr int kLayers = static_cast<int>(Layer::kCount);
  static constexpr size_t kMaxDepth = 16;

  bool enabled_ = false;
  uint64_t epoch_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  uint64_t self_ns_[kLayers] = {};
  uint64_t count_[kLayers] = {};
  uint64_t dropped_ = 0;
};

/// RAII nested span; inert when the tracer is disabled.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, Layer layer, uint64_t request)
      : tracer_(tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->Begin(name, layer, request);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
