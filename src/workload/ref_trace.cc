#include "workload/ref_trace.hh"

namespace aosd
{

RefTraceResult
runRefTrace(const MachineDesc &machine, const RefTraceConfig &cfg)
{
    Tlb tlb(machine.tlb);
    Rng rng(cfg.seed);
    RefTraceResult r;

    // The replay's cycle domain: one cycle per reference, plus refill
    // cycles on misses and purge cycles on untagged-TLB switches.
    Cycles refill_cycles = 0; // cumulative, the occupancy aux channel
    CounterWindow window(cfg.samplingIntervalCycles > 0,
                         {cfg.samplingIntervalCycles,
                          cfg.samplerCapacity});
    CounterSampler &sampler = CounterSampler::instance();

    Asid current = 1;
    double switch_prob =
        static_cast<double>(cfg.switchesPerMillion) / 1e6;

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
            current = 1 + static_cast<Asid>(rng.below(cfg.processes));
            r.cycles += tlb.switchContext(); // purges when untagged
        }

        bool system = rng.chance(cfg.systemFraction);
        if (system) {
            // System references: shared space (ASID 0), mild locality
            // over a sprawling pool.
            Vpn vpn;
            if (rng.chance(cfg.systemHotProbability))
                vpn = 0x100000 + rng.below(cfg.systemHotPages);
            else
                vpn = 0x110000 + rng.below(cfg.systemPoolPages);
            touch(vpn, 0, true);
        } else {
            // User references: per-process tight working set.
            Vpn base = 0x1000 * current;
            Vpn vpn;
            if (rng.chance(cfg.userHotProbability))
                vpn = base + rng.below(cfg.userHotPages);
            else
                vpn = base + 0x400 + rng.below(cfg.userColdPages);
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
