#include "src/trace/execution_index.h"

#include "src/common/hash.h"

namespace rose {

namespace {

// Mixes chain links and combines the sequence-key fields. Order-sensitivity
// comes from re-mixing the running value before each new link is folded in.
uint64_t Fold(uint64_t h, uint64_t v) { return Mix64(h + 0x9e3779b97f4a7c15ULL + v); }

}  // namespace

std::string IndexInputOf(const SyscallInvocation& inv) {
  if (SysTakesPath(inv.sys)) return std::string(inv.path);
  if (!inv.remote_ip.empty()) return std::string("sock:").append(inv.remote_ip);
  return std::string();
}

void ExecutionIndexTracker::OnFunctionEnter(Pid pid, int32_t function_id) {
  Chain& chain = chains_[pid];
  chain.ids[chain.head] = function_id;
  chain.head = static_cast<uint8_t>((chain.head + 1) % kExecutionContextDepth);
  if (chain.size < kExecutionContextDepth) chain.size++;
  chain.folded = false;
}

uint64_t ExecutionIndexTracker::DigestOf(Pid pid) {
  auto it = chains_.find(pid);
  if (it == chains_.end()) {
    return 0;
  }
  Chain& chain = it->second;
  if (!chain.folded) {
    chain.digest = DigestChain(chain);
    chain.folded = true;
  }
  return chain.digest;
}

uint64_t ExecutionIndexTracker::DigestChain(const Chain& chain) {
  // Oldest-to-newest over the ring so the digest is order-sensitive. The
  // chain is at most kExecutionContextDepth entries, so a full rehash per
  // read is a handful of mixes — cheaper than maintaining a removable
  // rolling hash and trivially correct.
  uint64_t h = 0;
  const int start = (chain.head - chain.size + kExecutionContextDepth) % kExecutionContextDepth;
  for (int i = 0; i < chain.size; i++) {
    const int slot = (start + i) % kExecutionContextDepth;
    h = Fold(h, static_cast<uint64_t>(static_cast<uint32_t>(chain.ids[slot])));
  }
  // 0 is reserved for "no context"; remap the (vanishingly rare) collision.
  return h == 0 ? 0x9e3779b97f4a7c15ULL : h;
}

uint64_t ExecutionIndexTracker::SeqKey(NodeId node, uint64_t digest, Sys sys,
                                       std::string_view input) {
  uint64_t h = digest;
  h = Fold(h, static_cast<uint64_t>(static_cast<uint32_t>(node)));
  h = Fold(h, static_cast<uint64_t>(static_cast<int32_t>(sys)));
  h = Fold(h, FnvMix(kFnvOffset, input));
  return h;
}

uint32_t ExecutionIndexTracker::NextSeq(NodeId node, uint64_t digest, Sys sys,
                                        std::string_view input) {
  return ++seq_[SeqKey(node, digest, sys, input)];
}

void ExecutionIndexTracker::Reset() {
  chains_.clear();
  seq_.clear();
}

}  // namespace rose
