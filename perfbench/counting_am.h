// A forwarding AccessMethod that the benchmark hands to the query operators
// in place of the file itself. Every call goes straight to the wrapped
// NetworkFile; on the way it counts calls, returned records and update
// outcomes, and in the traced run opens one span per call. None of this
// allocates, so the program's allocation counts are the same with and
// without the wrapper's spans.
#ifndef PERFBENCH_COUNTING_AM_H_
#define PERFBENCH_COUNTING_AM_H_

#include <string>
#include <vector>

#include "perfbench/tracer.h"
#include "src/core/network_file.h"

namespace perfbench {

class CountingAm final : public ccam::AccessMethod {
 public:
  struct Counts {
    // Find, Get-A-successor, Get-successors and HierarchyNode calls, and
    // the records they returned.
    uint64_t calls = 0;
    uint64_t records = 0;
    uint64_t updates = 0;  // node and edge inserts/deletes
    uint64_t structure_changes = 0;  // updates that split or merged pages
  };

  CountingAm(ccam::NetworkFile* file, Tracer* tracer)
      : file_(file), tracer_(tracer) {}

  void set_file(ccam::NetworkFile* file) { file_ = file; }
  /// Registry the operators see through metrics(); null by default.
  void set_metrics(ccam::MetricsRegistry* metrics) { metrics_ = metrics; }
  /// Request id stamped on the spans of the calls that follow.
  void set_request(uint64_t request) { request_ = request; }
  const Counts& counts() const { return counts_; }
  Tracer* tracer() const { return tracer_; }

  std::string Name() const override { return file_->Name(); }

  ccam::Status Create(const ccam::Network& network) override {
    SpanScope span(tracer_, "Create", Layer::kCreate, request_);
    return file_->Create(network);
  }

  ccam::Result<ccam::NodeRecord> Find(ccam::NodeId id) override {
    SpanScope span(tracer_, "Find", Layer::kCore, request_);
    return Read(file_->Find(id));
  }
  ccam::Result<ccam::NodeRecord> GetASuccessor(ccam::NodeId from,
                                               ccam::NodeId to) override {
    SpanScope span(tracer_, "GetASuccessor", Layer::kCore, request_);
    return Read(file_->GetASuccessor(from, to));
  }
  ccam::Result<std::vector<ccam::NodeRecord>> GetSuccessors(
      ccam::NodeId id) override {
    SpanScope span(tracer_, "GetSuccessors", Layer::kCore, request_);
    auto result = file_->GetSuccessors(id);
    ++counts_.calls;
    if (result.ok()) counts_.records += result.value().size();
    return result;
  }
  ccam::Result<ccam::HierarchyNodeRecord> HierarchyNode(
      ccam::NodeId id) override {
    SpanScope span(tracer_, "HierarchyNode", Layer::kCore, request_);
    return Read(file_->HierarchyNode(id));
  }

  ccam::Status InsertNode(const ccam::NodeRecord& record,
                          ccam::ReorgPolicy policy) override {
    SpanScope span(tracer_, "InsertNode", Layer::kUpdate, request_);
    return Update(file_->InsertNode(record, policy));
  }
  ccam::Status DeleteNode(ccam::NodeId id, ccam::ReorgPolicy policy) override {
    SpanScope span(tracer_, "DeleteNode", Layer::kUpdate, request_);
    return Update(file_->DeleteNode(id, policy));
  }
  ccam::Status InsertEdge(ccam::NodeId u, ccam::NodeId v, float cost,
                          ccam::ReorgPolicy policy) override {
    SpanScope span(tracer_, "InsertEdge", Layer::kUpdate, request_);
    return Update(file_->InsertEdge(u, v, cost, policy));
  }
  ccam::Status DeleteEdge(ccam::NodeId u, ccam::NodeId v,
                          ccam::ReorgPolicy policy) override {
    SpanScope span(tracer_, "DeleteEdge", Layer::kUpdate, request_);
    return Update(file_->DeleteEdge(u, v, policy));
  }

  ccam::IoStats DataIoStats() const override { return file_->DataIoStats(); }
  void ResetIoStats() override { file_->ResetIoStats(); }
  const ccam::NodePageMap& PageMap() const override {
    return file_->PageMap();
  }
  ccam::BufferPool* buffer_pool() override { return file_->buffer_pool(); }
  bool LastOpChangedStructure() const override {
    return file_->LastOpChangedStructure();
  }
  size_t NumDataPages() const override { return file_->NumDataPages(); }
  std::vector<ccam::NodeId> LiveNodeIds() const override {
    return file_->LiveNodeIds();
  }
  size_t NumLiveNodes() const override { return file_->NumLiveNodes(); }
  ccam::MetricsRegistry* metrics() const override { return metrics_; }
  ccam::RequestContext* request_context() const override {
    return file_->request_context();
  }
  bool HasHierarchy() const override { return file_->HasHierarchy(); }
  ccam::IoStats HierarchyIoStats() const override {
    return file_->HierarchyIoStats();
  }

 private:
  template <typename T>
  T Read(T result) {
    ++counts_.calls;
    if (result.ok()) ++counts_.records;
    return result;
  }
  ccam::Status Update(ccam::Status status) {
    ++counts_.updates;
    if (file_->LastOpChangedStructure()) ++counts_.structure_changes;
    return status;
  }

  ccam::NetworkFile* file_;
  Tracer* tracer_;
  ccam::MetricsRegistry* metrics_ = nullptr;
  uint64_t request_ = 0;
  Counts counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_AM_H_
