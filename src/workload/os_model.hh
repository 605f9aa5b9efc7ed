/**
 * @file
 * OS structure models: monolithic ("Mach 2.5") vs small-kernel
 * ("Mach 3.0"), §5.
 *
 * Both models execute the same AppProfile on an instrumented SimKernel.
 * The monolithic model services every Unix call inside the kernel; the
 * small-kernel model routes calls through a transparent emulation
 * library and cross-address-space RPCs to user-level servers (a Unix
 * server and a file cache manager), which is where the extra system
 * calls, context switches, kernel TLB misses and emulated instructions
 * of Table 7 come from.
 */

#ifndef AOSD_WORKLOAD_OS_MODEL_HH
#define AOSD_WORKLOAD_OS_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/machine_desc.hh"
#include "os/kernel/kernel.hh"
#include "sim/random.hh"
#include "sim/sampling/sampler.hh"
#include "workload/app_profile.hh"

namespace aosd
{

/** Which structure the OS uses. */
enum class OsStructure
{
    Monolithic,  ///< Mach 2.5: everything in the kernel
    SmallKernel, ///< Mach 3.0: services in user-level servers
};

constexpr const char *
osStructureName(OsStructure s)
{
    return s == OsStructure::Monolithic ? "Mach 2.5 (monolithic)"
                                        : "Mach 3.0 (decomposed)";
}

/** One Table 7 row. */
struct Table7Row
{
    std::string app;
    OsStructure structure = OsStructure::Monolithic;
    double elapsedSeconds = 0;
    std::uint64_t addressSpaceSwitches = 0;
    std::uint64_t threadSwitches = 0;
    std::uint64_t systemCalls = 0;
    std::uint64_t emulatedInstructions = 0;
    std::uint64_t kernelTlbMisses = 0;
    std::uint64_t otherExceptions = 0;
    /** Percent of elapsed time inside primitive operations. */
    double percentTimeInPrimitives = 0;
    /** Per-interval event rates over the run (empty unless the config
     *  set samplingIntervalCycles). */
    CounterTimeSeries timeseries;
    /** Kernel-window cycles-explained check (valid when the config
     *  set measureKernelWindow). */
    Reconciliation kernelWindow;
    bool hasKernelWindow = false;
};

/** Per-run settings of the system model (its fixed parameters are
 *  constants in os_model.cc). */
struct OsModelConfig
{
    /** RNG seed (runs are deterministic per seed). */
    std::uint64_t seed = 12345;
    /** Sample the counter file every this many simulated cycles into
     *  the row's time series (0 = off; off leaves the run untouched —
     *  no counter session is opened and no sample is ever taken). */
    Cycles samplingIntervalCycles = 0;
    /** Reconcile counted kernel events x primitive costs against the
     *  kernel's charged primitive cycles over the whole run. */
    bool measureKernelWindow = false;
};

/** Executes profiles against one machine + one OS structure. */
class MachSystem
{
  public:
    MachSystem(const MachineDesc &machine, OsStructure structure,
               OsModelConfig config = {});

    /** Run one application to completion and report its row. */
    Table7Row run(const AppProfile &app);

    OsStructure structure() const { return osStructure; }

  private:
    void serviceCallMonolithic(SimKernel &k, AddressSpace &app_space,
                               AddressSpace &daemon,
                               const AppProfile &app, Rng &rng);
    void serviceCallSmallKernel(SimKernel &k, AddressSpace &app_space,
                                AddressSpace &unix_server,
                                AddressSpace &cache_mgr,
                                const AppProfile &app, Rng &rng);
    void touchKernelPool(SimKernel &k, std::uint32_t touches, Rng &rng);

    MachineDesc desc;
    OsStructure osStructure;
    OsModelConfig cfg;
    /** Scratch page list reused by touchKernelPool (the engine calls
     *  it per syscall/IPC/switch; no per-call allocation). */
    std::vector<Vpn> poolScratch;
};

/** Paper values for Table 7 (for benches/tests). Returns a row with
 *  zeros when the paper has no such entry. */
Table7Row paperTable7Row(const std::string &app, OsStructure structure);

/** Dotted-path-safe slug for an app/run name: lower-case, every
 *  non-alphanumeric run collapsed to one '_' ("parthenon (1 thread)"
 *  -> "parthenon_1_thread"). */
std::string appSlug(const std::string &name);

class ParallelRunner;

/**
 * The full Table 7 grid for one machine: every (OS structure, app)
 * cell, structure-major — the order machStudy has always produced.
 * Each cell replays its app in its own simulation slice (fresh
 * MachSystem, fresh SimKernel, per-app-seeded Rng), so the runner can
 * fan the cells across workers and still hand back rows bit-for-bit
 * identical to the serial loop.
 */
std::vector<Table7Row> runMachGrid(const MachineDesc &machine,
                                   ParallelRunner &runner,
                                   OsModelConfig config = {});

} // namespace aosd

#endif // AOSD_WORKLOAD_OS_MODEL_HH
