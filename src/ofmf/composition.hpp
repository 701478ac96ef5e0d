// Redfish CompositionService: ResourceBlocks registered by agents/adapters,
// and specific composition — POST a set of block references, get back a
// Composed ComputerSystem; DELETE it to return the blocks to the free pool.
// Block capability figures ride in Oem.Ofmf (Cores / MemoryGiB / Gpus /
// StorageGiB / Locality / power), which is what the Composability Manager's
// placement policies read.
#pragma once

#include <string>
#include <vector>

#include "common/result.hpp"
#include "json/value.hpp"
#include "ofmf/events.hpp"
#include "redfish/tree.hpp"

namespace ofmf::core {

/// Capability summary of one resource block (the Oem.Ofmf payload).
struct BlockCapability {
  std::string id;
  std::string block_type;  // "Compute", "Memory", "Storage", "Expansion"
  int cores = 0;
  double memory_gib = 0.0;
  int gpus = 0;
  double storage_gib = 0.0;
  std::string locality;
  double idle_watts = 0.0;
  double active_watts = 0.0;
  // Worst utilization on the fabric path from this block to the compute
  // attach point (0..1+, from the fabricsim congestion model; agents keep it
  // current). Placement prefers low values; the QoS gate bounds it.
  double path_utilization = 0.0;

  json::Json ToPayload() const;
};

/// Parses a ResourceBlock payload back into capability form.
BlockCapability CapabilityFromPayload(const json::Json& block);

/// A block owned by another shard, adopted into a federated composition.
/// The payload is the block's full ResourceBlock document as read by the
/// router at claim time (capability source for the system's summaries).
struct RemoteBlock {
  std::string uri;
  std::string shard_id;
  json::Json payload;
};

class CompositionService {
 public:
  CompositionService(redfish::ResourceTree& tree, EventService& events);

  Status Bootstrap();

  /// Registers a block (CompositionState = Unused). Returns its URI.
  Result<std::string> RegisterBlock(const BlockCapability& capability);
  Status UnregisterBlock(const std::string& block_uri);

  /// Composes a system from `block_uris`; all must exist and be Unused.
  /// Transactional: blocks are claimed one at a time with an ETag-guarded
  /// compare-and-swap (so two racing compositions can never both take the
  /// same block), and any failure after the first claim rolls back every
  /// block already claimed plus the partially built system. Returns the new
  /// /redfish/v1/Systems/<id> URI.
  Result<std::string> Compose(const std::string& name,
                              const std::vector<std::string>& block_uris);

  /// Federated composition (the router's two-phase path). Every local block
  /// must ALREADY hold a Composed claim — the router claimed it over the
  /// wire by ETag-CAS before calling — and remote blocks are recorded
  /// (URI + shard + payload) under the system's Oem.Ofmf.Federation so
  /// capability summaries include them. Takes no claims and releases none
  /// on failure: the router owns claim rollback end to end.
  Result<std::string> ComposeAdopted(const std::string& name,
                                     const std::vector<std::string>& local_block_uris,
                                     const std::vector<RemoteBlock>& remote_blocks,
                                     const std::string& txn);

  /// Namespaces system ids as "composed-<prefix>-<n>" so two shards never
  /// mint the same /redfish/v1/Systems URI (set from the shard identity).
  void set_system_id_prefix(const std::string& prefix) { system_id_prefix_ = prefix; }

  /// Frees every block of a composed system and deletes it. Idempotent:
  /// decomposing a system that no longer exists succeeds (the desired end
  /// state already holds), so a client retrying a DELETE whose response was
  /// lost converges instead of erroring.
  Status Decompose(const std::string& system_uri);

  /// Adds `block_uri` to a *running* composed system (dynamic expansion —
  /// the paper's OOM-mitigation path). The block must be Unused.
  Status ExpandSystem(const std::string& system_uri, const std::string& block_uri);

  /// Block URIs currently in CompositionState Unused.
  std::vector<std::string> FreeBlockUris() const;
  /// Blocks attached to a composed system.
  Result<std::vector<std::string>> BlocksOf(const std::string& system_uri) const;

  Result<std::string> BlockState(const std::string& block_uri) const;

  /// Refreshes a registered block's Oem.Ofmf.PathUtilization (agents call
  /// this as the fabric congestion model moves).
  Status SetBlockPathUtilization(const std::string& block_uri, double utilization);

  // --- QoS-gated placement -----------------------------------------------
  // A tenant's QoS class bounds how congested a composed system's fabric
  // paths may be: "Guaranteed" <= 0.5, "Burstable" <= 0.85, anything else
  // (BestEffort, unknown, or no tenant) is unbounded.

  /// Worst-path-utilization ceiling for `qos_class` (1e9 = unbounded).
  static double UtilizationLimitFor(const std::string& qos_class);

  struct QosPlacementCheck {
    bool satisfied = true;
    double worst_utilization = 0.0;
    double limit = 0.0;
    std::string reason;  // human-readable when !satisfied
  };

  /// Evaluates whether composing over `block_uris` meets `qos_class` right
  /// now (reads each block's Oem.Ofmf.PathUtilization). Never places; the
  /// caller decides to compose, queue, or reject.
  Result<QosPlacementCheck> EvaluateQosPlacement(
      const std::vector<std::string>& block_uris, const std::string& qos_class) const;

  /// Outcome of the post-recovery consistency pass.
  struct CompositionRecovery {
    std::size_t systems_adopted = 0;      // every block claim verified held
    std::size_t systems_rolled_back = 0;  // half-composed; blocks freed, system gone
    std::size_t claims_released = 0;      // Composed blocks no system references
  };

  /// Post-crash-recovery pass, run before traffic is admitted:
  ///  1. re-syncs the system-id counter past every recovered "composed-<n>"
  ///     (otherwise the next Compose collides with a recovered system),
  ///  2. adopts composed systems whose blocks all exist and hold their
  ///     Composed claim; rolls back any other (a crash between claim and
  ///     create, or a block the fabric no longer provides) by freeing its
  ///     surviving blocks and deleting the system — the same unwind a failed
  ///     Compose performs,
  ///  3. releases Composed claims no surviving system references (a crash
  ///     between claim and system creation leaks exactly this way).
  Result<CompositionRecovery> RecoverConsistency();

 private:
  /// Returns a block to Unused and clears its Oem.Ofmf.ClaimedBy tag.
  Status FreeBlock(const std::string& block_uri);
  /// Atomically claims an Unused block (CAS on the block's ETag); retries a
  /// few times on CAS races, fails FailedPrecondition when the block is
  /// taken or contended.
  Status ClaimBlock(const std::string& block_uri);
  /// Rollback helper: returns each claimed block to Unused.
  void ReleaseBlocks(const std::vector<std::string>& block_uris);
  /// Recomputes a composed system's Processor/Memory summaries from its
  /// local blocks plus any adopted remote-block payloads.
  Status RefreshSummaries(const std::string& system_uri);
  /// "composed-[<prefix>-]<n>" with the counter advanced.
  std::string NextSystemId();

  redfish::ResourceTree& tree_;
  EventService& events_;
  std::uint64_t next_system_id_ = 1;
  std::string system_id_prefix_;
};

}  // namespace ofmf::core
