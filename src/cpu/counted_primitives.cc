#include "cpu/counted_primitives.hh"

#include "arch/machines.hh"
#include "cpu/exec_model.hh"
#include "cpu/handlers.hh"

namespace aosd
{

Json
CountedPrimitiveRun::toJson() const
{
    Json j = Json::object();
    j.set("machine", Json(machineSlug(machine)));
    j.set("primitive", Json(primitiveSlug(primitive)));
    j.set("repetitions",
          Json(static_cast<std::uint64_t>(repetitions)));
    j.set("cycles", Json(totalCycles));
    j.set("counters", counters.toJson());
    j.set("reconciliation", reconciliation.toJson());
    return j;
}

CountedPrimitiveRun
countPrimitive(const MachineDesc &machine, Primitive prim,
               unsigned reps)
{
    CountedPrimitiveRun run;
    run.machine = machine.id;
    run.primitive = prim;
    run.repetitions = reps;

    // Warm the handler (and, on the fast path, decoded) caches before
    // opening the counter window; runPrimitive dispatches to the
    // pre-decoded superblock or the interpreter, with identical
    // counter bumps either way (tests/test_predecode.cc).
    cachedHandler(machine, prim);
    ExecModel exec(machine);

    {
        CounterWindow window;
        for (unsigned i = 0; i < reps; ++i)
            run.totalCycles += exec.runPrimitive(prim).cycles;
        run.counters = window.events();
    }

    run.reconciliation =
        reconcileCycles(machine, run.counters, run.totalCycles);
    return run;
}

} // namespace aosd
