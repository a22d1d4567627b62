#ifndef RAINBOW_FAULT_FAULT_INJECTOR_H_
#define RAINBOW_FAULT_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace rainbow {

class RainbowSystem;

/// One scripted fault/recovery action at a virtual time. The Rainbow GUI
/// lets the user "inject network and site failures and recoveries"; this
/// is the scripted equivalent. The vocabulary covers site crashes,
/// bidirectional and asymmetric link failures, partitions, and the
/// per-link overrides (loss, delay spikes, duplication, reordering) the
/// nemesis fuzzer composes into adversarial schedules.
struct FaultEvent {
  enum class Kind {
    kCrashSite,
    kRecoverSite,
    kLinkDown,         ///< bidirectional: site <-> peer
    kLinkUp,
    kLinkDownOneWay,   ///< only site -> peer severed
    kLinkUpOneWay,
    kPartition,
    kHeal,
    kCrashNameServer,
    kRecoverNameServer,
    kLinkLoss,         ///< per-link loss probability (amount in [0,1])
    kLinkDelay,        ///< per-link delay-spike multiplier (amount >= 0)
    kLinkDup,          ///< per-link duplication probability (amount in [0,1])
    kLinkReorder,      ///< per-link reorder jitter (amount = window in µs)
    kClearLinkFaults,  ///< drop every per-link override
    kStorageTorn,      ///< per-write torn-write probability (amount in [0,1])
    kStorageShort,     ///< per-write short-write probability
    kStorageLost,      ///< per-write lost-write ("fsync lie") probability
    kStorageReadFlip,  ///< per-read stored-bit-flip probability
    kCount,            ///< number of kinds; not a real event
  };
  SimTime at = 0;
  Kind kind = Kind::kCrashSite;
  SiteId site = kInvalidSite;  ///< crash/recover; link source
  SiteId peer = kInvalidSite;  ///< link destination
  /// Override intensity: probability for kLinkLoss/kLinkDup, multiplier
  /// for kLinkDelay, jitter window in µs for kLinkReorder. The nemesis
  /// shrinker halves this toward the identity when minimizing a repro.
  double amount = 0.0;
  std::vector<std::vector<SiteId>> groups;  ///< partition

  bool operator==(const FaultEvent&) const = default;

  static FaultEvent Crash(SimTime at, SiteId s) {
    return FaultEvent{at, Kind::kCrashSite, s, kInvalidSite, 0.0, {}};
  }
  static FaultEvent Recover(SimTime at, SiteId s) {
    return FaultEvent{at, Kind::kRecoverSite, s, kInvalidSite, 0.0, {}};
  }
  static FaultEvent LinkDown(SimTime at, SiteId a, SiteId b) {
    return FaultEvent{at, Kind::kLinkDown, a, b, 0.0, {}};
  }
  static FaultEvent LinkUp(SimTime at, SiteId a, SiteId b) {
    return FaultEvent{at, Kind::kLinkUp, a, b, 0.0, {}};
  }
  static FaultEvent LinkDownOneWay(SimTime at, SiteId from, SiteId to) {
    return FaultEvent{at, Kind::kLinkDownOneWay, from, to, 0.0, {}};
  }
  static FaultEvent LinkUpOneWay(SimTime at, SiteId from, SiteId to) {
    return FaultEvent{at, Kind::kLinkUpOneWay, from, to, 0.0, {}};
  }
  static FaultEvent Partition(SimTime at,
                              std::vector<std::vector<SiteId>> groups) {
    return FaultEvent{at,  Kind::kPartition, kInvalidSite, kInvalidSite,
                      0.0, std::move(groups)};
  }
  static FaultEvent Heal(SimTime at) {
    return FaultEvent{at, Kind::kHeal, kInvalidSite, kInvalidSite, 0.0, {}};
  }
  static FaultEvent LinkLoss(SimTime at, SiteId from, SiteId to, double p) {
    return FaultEvent{at, Kind::kLinkLoss, from, to, p, {}};
  }
  static FaultEvent LinkDelay(SimTime at, SiteId from, SiteId to,
                              double multiplier) {
    return FaultEvent{at, Kind::kLinkDelay, from, to, multiplier, {}};
  }
  static FaultEvent LinkDup(SimTime at, SiteId from, SiteId to, double p) {
    return FaultEvent{at, Kind::kLinkDup, from, to, p, {}};
  }
  static FaultEvent LinkReorder(SimTime at, SiteId from, SiteId to,
                                double jitter_us) {
    return FaultEvent{at, Kind::kLinkReorder, from, to, jitter_us, {}};
  }
  static FaultEvent ClearLinkFaults(SimTime at) {
    return FaultEvent{at,  Kind::kClearLinkFaults, kInvalidSite, kInvalidSite,
                      0.0, {}};
  }
  static FaultEvent StorageTorn(SimTime at, SiteId s, double p) {
    return FaultEvent{at, Kind::kStorageTorn, s, kInvalidSite, p, {}};
  }
  static FaultEvent StorageShort(SimTime at, SiteId s, double p) {
    return FaultEvent{at, Kind::kStorageShort, s, kInvalidSite, p, {}};
  }
  static FaultEvent StorageLost(SimTime at, SiteId s, double p) {
    return FaultEvent{at, Kind::kStorageLost, s, kInvalidSite, p, {}};
  }
  static FaultEvent StorageReadFlip(SimTime at, SiteId s, double p) {
    return FaultEvent{at, Kind::kStorageReadFlip, s, kInvalidSite, p, {}};
  }
};

/// Stable lower-case name of a fault kind — doubles as the keyword of
/// the declarative fault-script grammar (fault/fault_script.h).
const char* FaultKindName(FaultEvent::Kind k);

inline constexpr size_t kNumFaultKinds =
    static_cast<size_t>(FaultEvent::Kind::kCount);

/// Schedules scripted fault events and (optionally) a random
/// crash/recover process per site, driven by exponential MTTF/MTTR.
///
/// Apply is idempotent with respect to site state: crashing a site that
/// is already down (or recovering one that is up) is a no-op and is not
/// counted — scripted and random fault streams can overlap without
/// double-crashing a site or desynchronizing the random process.
class FaultInjector {
 public:
  explicit FaultInjector(RainbowSystem* system);

  /// Schedules one scripted event.
  void Schedule(const FaultEvent& event);
  void ScheduleAll(const std::vector<FaultEvent>& events);

  /// Applies an event immediately (the interactive session's crash /
  /// linkdown / ... verbs act at the current virtual time).
  void ApplyNow(const FaultEvent& event) { Apply(event); }

  /// Starts a random fault process: each site independently crashes
  /// after Exp(mttf) up time and recovers after Exp(mttr) down time,
  /// until virtual time `until`. Uses its own RNG stream (seeded).
  /// At `until` every still-down site is recovered, whatever the
  /// interleaving with scripted events, so the run can drain.
  void EnableRandomFaults(SimTime mttf, SimTime mttr, SimTime until,
                          uint64_t seed);

  uint64_t crashes_injected() const { return crashes_; }
  uint64_t recoveries_injected() const { return recoveries_; }

 private:
  void Apply(const FaultEvent& event);
  /// Records an applied fault in the typed trace (detail = FaultKindName,
  /// plus the amount for override kinds); formats only when tracing.
  void TraceFault(const FaultEvent& e, bool with_amount = false);
  void ScheduleNextForSite(SiteId s, bool currently_up);
  bool SiteUp(SiteId s) const;

  RainbowSystem* system_;
  Rng rng_{0};
  SimTime random_until_ = 0;
  SimTime mttf_ = 0;
  SimTime mttr_ = 0;
  uint64_t crashes_ = 0;
  uint64_t recoveries_ = 0;
};

}  // namespace rainbow

#endif  // RAINBOW_FAULT_FAULT_INJECTOR_H_
