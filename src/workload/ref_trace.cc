#include "workload/ref_trace.hh"

namespace aosd
{

namespace
{

/** User locality: pages in the hot working set, and probability a
 *  user reference stays inside it. */
constexpr std::uint32_t userHotPages = 16;
constexpr double userHotProbability = 0.97;
constexpr std::uint32_t userColdPages = 256;
/** System references sprawl across a large pool (buffer cache,
 *  process structures, page tables). */
constexpr std::uint32_t systemPoolPages = 1024;
constexpr double systemHotProbability = 0.55;
constexpr std::uint32_t systemHotPages = 24;
/** Context switches per million references; each one disturbs the
 *  TLB (purge when untagged, pressure when tagged). */
constexpr std::uint32_t switchesPerMillion = 400;
constexpr std::uint32_t processes = 8;
constexpr std::uint64_t seed = 2718281828;

} // namespace

RefTraceResult
runRefTrace(const MachineDesc &machine, const RefTraceConfig &cfg)
{
    Tlb tlb(machine.tlb);
    Rng rng(seed);
    RefTraceResult r;

    // The replay's cycle domain: one cycle per reference, plus refill
    // cycles on misses and purge cycles on untagged-TLB switches.
    Cycles refill_cycles = 0; // cumulative, the occupancy aux channel
    CounterWindow window(cfg.samplingIntervalCycles > 0,
                         SamplerConfig{cfg.samplingIntervalCycles});
    CounterSampler &sampler = CounterSampler::instance();

    Asid current = 1;
    double switch_prob =
        static_cast<double>(switchesPerMillion) / 1e6;

    auto touch = [&](Vpn vpn, Asid asid, bool system) {
        TlbLookup look = tlb.lookup(vpn, asid, system);
        r.cycles += 1 + look.missCycles;
        if (system) {
            ++r.systemRefs;
            r.systemMisses += !look.hit;
        } else {
            ++r.userRefs;
            r.userMisses += !look.hit;
        }
        if (!look.hit) {
            refill_cycles += look.missCycles;
            tlb.insert(vpn, asid, vpn, {});
        }
    };

    for (std::uint64_t i = 0; i < cfg.references; ++i) {
        if (rng.chance(switch_prob)) {
            current = 1 + static_cast<Asid>(rng.below(processes));
            r.cycles += tlb.switchContext(); // purges when untagged
        }

        bool system = rng.chance(cfg.systemFraction);
        if (system) {
            // System references: shared space (ASID 0), mild locality
            // over a sprawling pool.
            Vpn vpn;
            if (rng.chance(systemHotProbability))
                vpn = 0x100000 + rng.below(systemHotPages);
            else
                vpn = 0x110000 + rng.below(systemPoolPages);
            touch(vpn, 0, true);
        } else {
            // User references: per-process tight working set.
            Vpn base = 0x1000 * current;
            Vpn vpn;
            if (rng.chance(userHotProbability))
                vpn = base + rng.below(userHotPages);
            else
                vpn = base + 0x400 + rng.below(userColdPages);
            touch(vpn, current, false);
        }
        sampler.tick(r.cycles,
                     static_cast<double>(refill_cycles));
    }

    r.timeseries =
        window.finish(r.cycles, static_cast<double>(refill_cycles));
    return r;
}

} // namespace aosd
