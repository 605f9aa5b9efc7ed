#include "cpu/decoded_program.hh"

#include <array>
#include <atomic>
#include <cstdlib>
#include <map>

#include "cpu/handlers.hh"

namespace aosd
{

namespace
{

bool
initialPredecode()
{
    // AOSD_NO_PREDECODE=1 selects the interpreter reference path for
    // harnesses that cannot pass a flag (google-benchmark's main);
    // unset, empty, or "0" keep the fast path.
    const char *env = std::getenv("AOSD_NO_PREDECODE");
    if (!env || !env[0])
        return true;
    return env[0] == '0' && env[1] == '\0';
}

std::atomic<bool> predecodeOn{initialPredecode()};

} // namespace

bool
predecodeEnabled()
{
    return predecodeOn.load(std::memory_order_relaxed);
}

void
setPredecodeEnabled(bool on)
{
    predecodeOn.store(on, std::memory_order_relaxed);
}

DecodedPhase
decodeStream(const MachineDesc &desc, const InstrStream &stream)
{
    DecodedPhase dp;
    std::array<std::uint64_t, numHwCounters> counts{};
    // Constant cycles accumulated since the last write-buffer step;
    // becomes the next step's gapBefore, or the phase tail.
    Cycles gap = 0;

    for (const Op &op : stream.ops()) {
        const OpPrice p = priceOp(desc, op);
        const std::uint64_t n = op.count;
        if (op.countsAsInstr) {
            dp.instructions += n;
            counts[static_cast<std::size_t>(HwCounter::InstrRetired)] +=
                n;
        }
        p.addCauses(dp.constBreakdown, n);
        for (const OpPrice::Bump &b : p.bumps)
            counts[static_cast<std::size_t>(b.counter)] += n * b.n;
        if (p.wb == WbInteraction::None) {
            gap += n * p.cycles;
            continue;
        }
        // The buffer interaction depends on its state: one step per
        // repetition at the repetition's start (a store is offered at
        // start + 1, matching the interpreter's bookkeeping); the
        // constant cycles land in the next gap.
        const bool is_store = p.wb == WbInteraction::Store;
        for (std::uint64_t i = 0; i < n; ++i) {
            dp.steps.push_back({gap, is_store, is_store && op.samePage});
            gap = p.cycles;
        }
    }
    dp.tailCycles = gap;
    for (std::size_t i = 0; i < numHwCounters; ++i)
        if (counts[i])
            dp.constCounters.emplace_back(static_cast<HwCounter>(i),
                                          counts[i]);
    return dp;
}

DecodedProgram
decodeProgram(const MachineDesc &machine, const HandlerProgram &program)
{
    DecodedProgram dec;
    dec.primitive = program.primitive;
    dec.phases.reserve(program.phases.size());
    for (const Phase &phase : program.phases) {
        DecodedPhase dp = decodeStream(machine, phase.code);
        dp.kind = phase.kind;
        dec.phases.push_back(std::move(dp));
    }
    return dec;
}

const DecodedProgram &
cachedDecodedHandler(const MachineDesc &machine, Primitive prim)
{
    struct CacheEntry
    {
        MachineDesc desc;
        DecodedProgram program;
    };
    // Node-based map: entries are address-stable, so returned
    // references survive later insertions.
    thread_local std::map<std::pair<int, int>, CacheEntry> cache;

    std::pair<int, int> key{static_cast<int>(machine.id),
                            static_cast<int>(prim)};
    auto it = cache.find(key);
    if (it == cache.end() || !(it->second.desc == machine)) {
        // Miss, or an ablation-modified desc under a cached id:
        // (re)compile and replace the entry.
        it = cache
                 .insert_or_assign(
                     key,
                     CacheEntry{machine,
                                decodeProgram(
                                    machine,
                                    cachedHandler(machine, prim))})
                 .first;
    }
    return it->second.program;
}

} // namespace aosd
