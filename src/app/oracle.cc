#include "src/app/oracle.h"

#include "src/core/kernel.h"
#include "src/trace/trace.h"

namespace xk {

namespace {
uint8_t PatternByte(uint64_t id, size_t i) {
  return static_cast<uint8_t>((id * 31 + i * 7 + 13) & 0xFF);
}
}  // namespace

Message AmoOracle::MakeRequest(uint64_t id, size_t payload_bytes) {
  // Built in a per-thread scratch buffer; FromBytes copies it into a pooled
  // block, so no request allocates once the buffer has reached its size.
  static thread_local std::vector<uint8_t> bytes;
  bytes.resize(kIdBytes + payload_bytes);
  for (size_t i = 0; i < kIdBytes; ++i) {
    bytes[i] = static_cast<uint8_t>(id >> (8 * (kIdBytes - 1 - i)));
  }
  for (size_t i = 0; i < payload_bytes; ++i) {
    bytes[kIdBytes + i] = PatternByte(id, i);
  }
  return Message::FromBytes(bytes);
}

uint64_t AmoOracle::ExtractId(const Message& msg) {
  uint8_t hdr[kIdBytes];
  if (!msg.PeekHeader(hdr)) {
    return 0;
  }
  uint64_t id = 0;
  for (uint8_t b : hdr) {
    id = (id << 8) | b;
  }
  return id;
}

const AmoOracle::CallRecord* AmoOracle::Find(uint64_t id) const {
  const uint64_t stream = id >> 32;
  const uint64_t index = id & 0xFFFFFFFFu;
  if (stream < streams_.size() && index < streams_[stream].size()) {
    return &streams_[stream][index];
  }
  return sparse_.Find(id);
}

AmoOracle::CallRecord& AmoOracle::Touch(uint64_t id) {
  const uint64_t stream = id >> 32;
  const uint64_t index = id & 0xFFFFFFFFu;
  if (stream < streams_.size() && index < streams_[stream].size()) {
    return streams_[stream][index];
  }
  return *sparse_.TryEmplace(id).first;
}

void AmoOracle::CoverDense(uint64_t id) {
  const uint64_t stream = id >> 32;
  const uint64_t index = id & 0xFFFFFFFFu;
  if (stream >= kMaxDenseStreams) {
    return;
  }
  if (stream >= streams_.size()) {
    streams_.resize(stream + 1);
  }
  std::vector<CallRecord>& records = streams_[stream];
  const uint64_t old_size = records.size();
  if (index < old_size || index - old_size > kMaxDenseGap) {
    return;
  }
  records.resize(index + 1);
  if (sparse_.empty()) {
    return;
  }
  for (uint64_t i = old_size; i <= index; ++i) {
    (void)sparse_.Take((stream << 32) | i, &records[i]);
  }
}

RpcServer::Handler AmoOracle::WrapEcho(Kernel* server_kernel) {
  return [this, server_kernel](uint16_t command, Message& request) -> Message {
    (void)command;
    const uint64_t id = ExtractId(request);
    {
      std::lock_guard<std::mutex> lock(mu_);
      const Execution exec{server_kernel, server_kernel->boot_id()};
      CallRecord& rec = Touch(id);
      if (rec.host == nullptr) {
        rec.host = exec.host;
        rec.boot = exec.boot;
      } else {
        rec.flags |= kSpilled;
        spilled_.TryEmplace(id).first->push_back(exec);
      }
    }
    if (TraceSink* ts = server_kernel->trace_sink()) {
      // Bind the server-side execution to the oracle call id; the echoed
      // reply is a copy of the request, so it keeps the same message id and
      // the reply path reads as the same logical message.
      ts->RecordEvent(*server_kernel, TraceOp::kExec, "rpc_server", server_kernel->now(), id,
                      &request, nullptr, server_kernel->boot_id());
    }
    return request;  // echo: the client checks the bytes round-tripped
  };
}

void AmoOracle::RecordIssued(uint64_t id, SimTime at) {
  (void)at;
  std::lock_guard<std::mutex> lock(mu_);
  CoverDense(id);
  Touch(id).flags |= kIssued;
}

void AmoOracle::RecordHedged(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Touch(id).flags |= kHedged;
}

void AmoOracle::RecordOutcome(uint64_t id, const Result<Message>& r, SimTime at) {
  (void)at;
  std::lock_guard<std::mutex> lock(mu_);
  CallRecord& rec = Touch(id);
  if (!r.ok()) {
    rec.flags |= kFailed;
    rec.fail_code = r.status().code();
    return;
  }
  rec.flags |= kCompleted;
  const Message& reply = *r;
  const uint64_t reply_id = ExtractId(reply);
  if (reply_id != id) {
    const CallRecord* other = Find(reply_id);
    if (other == nullptr || other->empty()) {
      ++unknown_replies_;
    }
    rec.flags |= kMismatched;
    return;
  }
  // Verify the payload pattern byte-for-byte (in a per-thread scratch buffer,
  // so checking a reply allocates nothing once the buffer has grown).
  static thread_local std::vector<uint8_t> bytes;
  reply.FlattenInto(bytes);
  if (bytes.size() < kIdBytes) {
    rec.flags |= kMismatched;
    return;
  }
  for (size_t i = kIdBytes; i < bytes.size(); ++i) {
    if (bytes[i] != PatternByte(id, i - kIdBytes)) {
      rec.flags |= kMismatched;
      return;
    }
  }
}

void AmoOracle::Tally(uint64_t id, const CallRecord& rec, Report& rep) const {
  if (rec.flags & kIssued) {
    ++rep.issued;
  }
  if (rec.flags & kCompleted) {
    ++rep.completed;
  } else if (rec.flags & kFailed) {
    ++rep.failed;
    switch (rec.fail_code) {
      case StatusCode::kDeadlineExceeded:
        ++rep.shed;
        break;
      case StatusCode::kBusy:
        ++rep.rejected;
        break;
      case StatusCode::kResourceExhausted:
        ++rep.budget_exhausted;
        break;
      default:
        break;
    }
  } else if (rec.flags & kIssued) {
    ++rep.silent;
  }
  if (rec.flags & kMismatched) {
    ++rep.mismatched_replies;
  }
  if (rec.flags & kHedged) {
    ++rep.hedged;
  }
  if (rec.host == nullptr) {
    return;
  }
  if ((rec.flags & kSpilled) == 0) {
    ++rep.executions;
    return;
  }
  const std::vector<Execution>& rest = *spilled_.Find(id);
  rep.executions += 1 + rest.size();
  // Per host: the same boot twice = at-most-once violation; a new boot
  // re-executing is the (reported) consequence of losing the duplicate
  // filter in a crash. Each execution is compared with the same host's
  // previous one. Across hosts: only a hedged id may legitimately run on
  // more than one replica (the intended race); unhedged cross-host
  // duplication is a violation.
  auto exec_at = [&](size_t i) {
    return i == 0 ? Execution{rec.host, rec.boot} : rest[i - 1];
  };
  uint64_t hosts = 1;
  for (size_t i = 1; i <= rest.size(); ++i) {
    const Execution cur = exec_at(i);
    size_t prev = i;
    while (prev > 0 && exec_at(prev - 1).host != cur.host) {
      --prev;
    }
    if (prev == 0) {
      ++hosts;  // first execution on this host
    } else if (exec_at(prev - 1).boot == cur.boot) {
      ++rep.double_executions;
    } else {
      ++rep.cross_boot_reexecutions;
    }
  }
  if (hosts > 1) {
    if (rec.flags & kHedged) {
      rep.hedged_duplicate_executions += hosts - 1;
    } else {
      rep.double_executions += hosts - 1;
    }
  }
}

size_t AmoOracle::dense_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const std::vector<CallRecord>& records : streams_) {
    n += records.size();
  }
  return n;
}

size_t AmoOracle::sparse_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sparse_.size();
}

AmoOracle::Report AmoOracle::Finish() const {
  std::lock_guard<std::mutex> lock(mu_);
  Report rep;
  rep.unknown_replies = unknown_replies_;
  for (size_t stream = 0; stream < streams_.size(); ++stream) {
    const std::vector<CallRecord>& records = streams_[stream];
    for (size_t index = 0; index < records.size(); ++index) {
      Tally((uint64_t{stream} << 32) | index, records[index], rep);
    }
  }
  sparse_.ForEach([&](uint64_t id, const CallRecord& rec) { Tally(id, rec, rep); });
  const uint64_t not_admitted = rep.shed + rep.rejected;
  rep.admitted = rep.issued > not_admitted ? rep.issued - not_admitted : 0;
  rep.admitted_success_ppm =
      rep.admitted == 0 ? 1000000 : rep.completed * 1000000 / rep.admitted;
  return rep;
}

}  // namespace xk
