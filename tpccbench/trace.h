#ifndef PHOEBE_TPCCBENCH_TRACE_H_
#define PHOEBE_TPCCBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace tpccbench {

/// Span kinds recorded by the traced run, all timed from outside the
/// program around calls into its public functions.
enum class SpanKind : uint8_t {
  kTxn = 0,          // submission to acknowledged result
  kQueue,            // submission to the first resume of the task
  kResume,           // one TxnTask::Resume() slice (on-CPU)
  kWaitLatch,        // suspended after a WaitKind::kLatch yield
  kWaitAsyncRead,    // ... kAsyncRead
  kWaitXidLock,      // ... kXidLock
  kWaitCommitFlush,  // ... kCommitFlush
  kWaitOther,        // ... kNone
  kBackoff,          // retry backoff between attempts (not a program wait)
  kProbeIndexGet,    // post-window probe batches
  kProbeIndexScan,
  kProbeEmptyCommit,
  kRecovery,         // reopen of the database after the run
};

const char* SpanName(SpanKind k);

/// A span. Spans of one transaction share `txn`; a child's parent is the
/// transaction's kTxn span (or, for probe and recovery spans, none).
struct Span {
  uint64_t txn = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Wait spans: resumes that found the task still blocked on the same
  /// kind (polls) inside the span.
  uint32_t polls = 0;
  SpanKind kind = SpanKind::kTxn;
};

/// Fixed-capacity in-memory span store, written by one thread at a time
/// (the owner hands it over through a mutex) and dumped after the run.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity = 0) { spans_.reserve(capacity); }

  void Add(uint64_t txn, SpanKind kind, uint64_t start_ns, uint64_t end_ns,
           uint32_t polls = 0) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{txn, start_ns, end_ns, polls, kind});
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Writes `buffers` as JSON lines: one header object, then one object per
/// span with its id, parent id, transaction id, name, and start/end in
/// microseconds since `origin_ns`. Returns false on an I/O error.
bool WriteTrace(const std::string& path, const std::string& header_json,
                const std::vector<const SpanBuffer*>& buffers,
                uint64_t origin_ns);

}  // namespace tpccbench

#endif  // PHOEBE_TPCCBENCH_TRACE_H_
