#include "tpccbench/trace.h"

namespace tpccbench {

const char* SpanName(SpanKind k) {
  switch (k) {
    case SpanKind::kTxn: return "txn";
    case SpanKind::kQueue: return "queue";
    case SpanKind::kResume: return "resume";
    case SpanKind::kWaitLatch: return "wait.latch";
    case SpanKind::kWaitAsyncRead: return "wait.async_read";
    case SpanKind::kWaitXidLock: return "wait.xid_lock";
    case SpanKind::kWaitCommitFlush: return "wait.commit_flush";
    case SpanKind::kWaitOther: return "wait.other";
    case SpanKind::kBackoff: return "retry_backoff";
    case SpanKind::kProbeIndexGet: return "probe.index_get";
    case SpanKind::kProbeIndexScan: return "probe.index_scan";
    case SpanKind::kProbeEmptyCommit: return "probe.empty_commit";
    case SpanKind::kRecovery: return "recovery";
    default: return "?";
  }
}

bool WriteTrace(const std::string& path, const std::string& header_json,
                const std::vector<const SpanBuffer*>& buffers,
                uint64_t origin_ns) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "%s\n", header_json.c_str());
  // Span ids: a transaction's kTxn span has id "t<txn>", every other span
  // "t<txn>.<n>" with the transaction span as parent; spans outside a
  // transaction (probes, recovery) have id "p<n>" and no parent.
  uint64_t free_n = 0;
  for (const SpanBuffer* buf : buffers) {
    uint64_t child_n = 0;
    for (const Span& s : buf->spans()) {
      const double start_us =
          static_cast<double>(static_cast<int64_t>(s.start_ns - origin_ns)) /
          1e3;
      const double end_us =
          static_cast<double>(static_cast<int64_t>(s.end_ns - origin_ns)) /
          1e3;
      const unsigned long long txn = s.txn;
      if (s.txn == 0) {
        fprintf(f,
                "{\"id\":\"p%llu\",\"parent\":null,\"txn\":null,"
                "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                static_cast<unsigned long long>(++free_n), SpanName(s.kind),
                start_us, end_us);
      } else if (s.kind == SpanKind::kTxn) {
        fprintf(f,
                "{\"id\":\"t%llu\",\"parent\":null,\"txn\":%llu,"
                "\"name\":\"txn\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                txn, txn, start_us, end_us);
      } else {
        fprintf(f,
                "{\"id\":\"t%llu.%llu\",\"parent\":\"t%llu\",\"txn\":%llu,"
                "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                "\"polls\":%u}\n",
                txn, static_cast<unsigned long long>(++child_n), txn, txn,
                SpanName(s.kind), start_us, end_us, s.polls);
      }
    }
  }
  bool ok = ferror(f) == 0;
  return fclose(f) == 0 && ok;
}

}  // namespace tpccbench
