/**
 * @file
 * Study: one call per paper table.
 *
 * Each method runs the relevant simulation and returns structured
 * results (used by the bench binaries, which add the paper's numbers
 * alongside, and available to library users directly).
 */

#ifndef AOSD_CORE_STUDY_HH
#define AOSD_CORE_STUDY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/machine_desc.hh"
#include "arch/isa.hh"
#include "os/ipc/lrpc.hh"
#include "os/ipc/rpc.hh"
#include "workload/os_model.hh"

namespace aosd
{

class ParallelRunner;

/** Table 1/2 cell: one primitive on one machine. */
struct PrimitiveResult
{
    MachineId machine;
    std::string machineName;
    Primitive primitive;
    double simMicros = 0;
    double paperMicros = -1; ///< <0 when the paper has none
    std::uint64_t simInstructions = 0;
    std::uint64_t paperInstructions = 0; ///< 0 when the paper has none
    double relativeToCvax = 0;
};

/** Table 5 cell: one null-syscall phase on one machine. */
struct SyscallPhaseResult
{
    MachineId machine;
    std::string machineName;
    PhaseKind phase;
    double simMicros = 0;
    double paperMicros = -1;
};

/** Table 6 row. */
struct ThreadStateResult
{
    MachineId machine;
    std::string machineName;
    std::uint32_t registers = 0;
    std::uint32_t fpState = 0;
    std::uint32_t miscState = 0;
};

/** High-level entry points, one per paper table. */
class Study
{
  public:
    /** Table 1 + Table 2 data for every machine. */
    static std::vector<PrimitiveResult> primitives();

    /** Table 3: SRC RPC distribution on a machine (default CVAX). */
    static RpcBreakdown srcRpc(MachineId m = MachineId::CVAX,
                               std::uint32_t arg_bytes = 74,
                               std::uint32_t result_bytes = 74);

    /** Table 4: LRPC distribution on a machine (default CVAX). */
    static LrpcBreakdown lrpc(MachineId m = MachineId::CVAX);

    /** Table 5: null-syscall phase decomposition, one profiled run
     *  per machine fanned across `runner` (results in machine order
     *  regardless of completion order). */
    static std::vector<SyscallPhaseResult>
    syscallAnatomy(ParallelRunner &runner);

    /** Table 6: thread state sizes. */
    static std::vector<ThreadStateResult> threadState();

    /** Table 7: run every workload on both OS structures (the paper
     *  uses the DECstation 5000/200, MachineId::R3000), one
     *  (structure, app) cell per runner job. */
    static std::vector<Table7Row> machStudy(MachineId m,
                                            ParallelRunner &runner);

    /** One Table 7 row. */
    static Table7Row machRow(const std::string &workload,
                             OsStructure structure,
                             MachineId m = MachineId::R3000);
};

} // namespace aosd

#endif // AOSD_CORE_STUDY_HH
