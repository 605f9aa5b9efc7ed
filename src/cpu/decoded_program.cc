#include "cpu/decoded_program.hh"

#include <array>
#include <atomic>
#include <cstdlib>
#include <map>

#include "cpu/handlers.hh"
#include "sim/logging.hh"

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
    auto bump = [&](HwCounter c, std::uint64_t n = 1) {
        counts[static_cast<std::size_t>(c)] += n;
    };
    // Constant cycles accumulated since the last write-buffer step;
    // becomes the next step's gapBefore, or the phase tail.
    Cycles gap = 0;
    auto step = [&](bool is_store, bool same_page) {
        dp.steps.push_back({gap, is_store, same_page});
        gap = 0;
    };

    for (const Op &op : stream.ops()) {
        if (op.countsAsInstr) {
            dp.instructions += op.count;
            bump(HwCounter::InstrRetired, op.count);
        }
        CycleBreakdown &bd = dp.constBreakdown;
        const std::uint64_t n = op.count;
        switch (op.kind) {
          case OpKind::Alu:
          case OpKind::Nop:
            bd.base += n;
            bump(HwCounter::IssueSlots, n);
            if (op.kind == OpKind::Nop)
                bump(HwCounter::Nops, n);
            gap += n;
            break;

          case OpKind::Branch: {
            Cycles bp = desc.timing.branchPenaltyCycles;
            bd.base += n;
            bd.trapHardware += n * bp;
            bump(HwCounter::IssueSlots, n);
            bump(HwCounter::Branches, n);
            bump(HwCounter::InterlockCycles, n * bp);
            gap += n * (1 + bp);
            break;
          }

          case OpKind::Load: {
            if (op.uncached) {
                bd.uncached += n * desc.cache.uncachedCycles;
                bump(HwCounter::UncachedAccesses, n);
                gap += n * desc.cache.uncachedCycles;
                break;
            }
            Cycles miss =
                op.coldMiss ? desc.cache.missPenaltyCycles : 0;
            bd.base += n;
            bump(HwCounter::IssueSlots, n);
            bump(HwCounter::Loads, n);
            if (op.coldMiss) {
                bd.cacheMissStall += n * miss;
                bump(HwCounter::ColdMisses, n);
            }
            if (desc.writeBuffer.readsWaitForDrain) {
                // The drain wait depends on buffer state: one step per
                // repetition, sampled at the load's start cycle. The
                // load's own issue slot and miss penalty follow it.
                for (std::uint64_t i = 0; i < n; ++i) {
                    step(/*is_store=*/false, false);
                    gap = 1 + miss;
                }
            } else {
                gap += n * (1 + miss);
            }
            break;
          }

          case OpKind::Store: {
            if (op.uncached) {
                bd.uncached += n * desc.cache.uncachedCycles;
                bump(HwCounter::UncachedAccesses, n);
                gap += n * desc.cache.uncachedCycles;
                break;
            }
            bd.base += n;
            bump(HwCounter::IssueSlots, n);
            bump(HwCounter::Stores, n);
            for (std::uint64_t i = 0; i < n; ++i) {
                // The buffer is offered the store at its completion
                // cycle (start + 1); the issue slot lands in the next
                // gap, matching the interpreter's now bookkeeping.
                step(/*is_store=*/true, op.samePage);
                gap = 1;
            }
            break;
          }

          case OpKind::TrapEnter:
            bd.trapHardware += n * desc.timing.trapEnterCycles;
            bump(HwCounter::TrapEnters, n);
            gap += n * desc.timing.trapEnterCycles;
            break;

          case OpKind::TrapReturn:
            bd.trapHardware += n * desc.timing.trapReturnCycles;
            bump(HwCounter::TrapReturns, n);
            gap += n * desc.timing.trapReturnCycles;
            break;

          case OpKind::CtrlRegRead:
          case OpKind::CtrlRegWrite:
            bd.ctrlReg += n * desc.timing.ctrlRegCycles;
            bump(HwCounter::CtrlRegAccesses, n);
            gap += n * desc.timing.ctrlRegCycles;
            break;

          case OpKind::TlbWrite:
            bd.tlbOps += n * desc.tlb.writeEntryCycles;
            bump(HwCounter::TlbWriteOps, n);
            gap += n * desc.tlb.writeEntryCycles;
            break;

          case OpKind::TlbProbe:
            bd.tlbOps += n * 3;
            bump(HwCounter::TlbProbeOps, n);
            gap += n * 3;
            break;

          case OpKind::TlbPurgeEntry:
            bd.tlbOps += n * desc.tlb.purgeEntryCycles;
            bump(HwCounter::TlbPurgeEntryOps, n);
            gap += n * desc.tlb.purgeEntryCycles;
            break;

          case OpKind::TlbPurgeAll:
            bd.tlbOps += n * desc.tlb.purgeAllCycles;
            bump(HwCounter::TlbPurgeAllOps, n);
            gap += n * desc.tlb.purgeAllCycles;
            break;

          case OpKind::CacheFlushLine:
            bd.cacheMaintenance += n * desc.cache.flushLineCycles;
            bump(HwCounter::CacheFlushLines, n);
            gap += n * desc.cache.flushLineCycles;
            break;

          case OpKind::CacheFlushAll: {
            Cycles lines = desc.cache.sizeBytes / desc.cache.lineBytes;
            Cycles c = lines * desc.cache.flushLineCycles;
            bd.cacheMaintenance += n * c;
            bump(HwCounter::CacheFlushLines, n * lines);
            gap += n * c;
            break;
          }

          case OpKind::Microcoded:
            bd.microcode += n * op.cycles;
            bump(HwCounter::MicrocodeOps, n);
            bump(HwCounter::MicrocodeCycles, n * op.cycles);
            gap += n * op.cycles;
            break;

          case OpKind::AtomicOp:
            bd.uncached += n * desc.cache.uncachedCycles;
            bump(HwCounter::AtomicOps, n);
            gap += n * desc.cache.uncachedCycles;
            break;

          case OpKind::FpuSync:
            bd.fpuSync += n * op.cycles;
            bump(HwCounter::FpuSyncCycles, n * op.cycles);
            gap += n * op.cycles;
            break;

          case OpKind::WindowOverflowTrap:
            bd.trapHardware += n * desc.timing.trapEnterCycles;
            bump(HwCounter::WindowOverflows, n);
            bump(HwCounter::WindowsSpilled, n);
            gap += n * desc.timing.trapEnterCycles;
            break;

          case OpKind::WindowUnderflowTrap:
            bd.trapHardware += n * desc.timing.trapEnterCycles;
            bump(HwCounter::WindowUnderflows, n);
            gap += n * desc.timing.trapEnterCycles;
            break;
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
