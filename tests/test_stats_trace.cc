/**
 * @file
 * Tests for the observability layer: JSON round-trips of the
 * StatRegistry, trace ring-buffer overflow behaviour, event ordering
 * under a simulated context switch, and the RPC/LRPC component and
 * handler-phase records on the trace timeline.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "arch/machines.hh"
#include "cpu/exec_model.hh"
#include "os/ipc/lrpc.hh"
#include "os/ipc/rpc.hh"
#include "os/ipc/urpc.hh"
#include "os/kernel/kernel.hh"
#include "sim/counters/counters.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

using namespace aosd;

namespace
{

/** Restore global tracer/registry state around each test. */
class ObservabilityTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        Tracer::instance().disable();
        Tracer::instance().clear();
        StatRegistry::instance().setRetainRetired(false);
    }
};

using StatsJsonTest = ObservabilityTest;
using TraceRingTest = ObservabilityTest;
using TraceOrderTest = ObservabilityTest;

} // namespace

// ---- JSON primitive behaviour -------------------------------------

TEST(JsonTest, DumpParseRoundTrip)
{
    Json doc = Json::object();
    doc.set("int", Json(42));
    doc.set("neg", Json(-17.25));
    doc.set("big", Json(std::uint64_t{123456789012345ull}));
    doc.set("str", Json("line\nbreak \"quoted\" \\slash"));
    doc.set("flag", Json(true));
    doc.set("none", Json(nullptr));
    Json arr = Json::array();
    arr.push(Json(1));
    arr.push(Json("two"));
    arr.push(Json(3.5));
    doc.set("arr", std::move(arr));

    for (int indent : {-1, 0, 2}) {
        std::string err;
        Json back = Json::parse(doc.dump(indent), &err);
        EXPECT_TRUE(err.empty()) << err;
        EXPECT_TRUE(back == doc) << doc.dump(2);
    }
}

TEST(JsonTest, ParseRejectsMalformedInput)
{
    // Hostile input too: nesting deep enough to overflow the stack, a
    // number that overflows a double, and a repeated key.
    const std::string deep =
        std::string(200000, '[') + std::string(200000, ']');
    for (const std::string &bad :
         {std::string(""), std::string("{"), std::string("[1,"),
          std::string("{\"a\":}"), std::string("tru"),
          std::string("\"unterminated"),
          std::string("{\"a\":1}garbage"), std::string("[1 2]"), deep,
          std::string("1e999999"), std::string("{\"a\":1,\"a\":5}"),
          std::string("\"\\ud800\""), std::string("\"\\udc00x\""),
          std::string("\"\\ud800\\u0041\"")}) {
        std::string err;
        Json v = Json::parse(bad, &err);
        EXPECT_TRUE(v.isNull()) << bad.substr(0, 40);
        EXPECT_NE(err.find(" at offset "), std::string::npos)
            << bad.substr(0, 40) << ": " << err;
    }
    std::string err;
    Json::parse("{\"a\":1,\"a\":5}", &err);
    EXPECT_EQ(err, "duplicate key 'a' at offset 7");
    Json::parse("[\"ok\", \"\\ud800\\u0041\"]", &err);
    EXPECT_EQ(err, "unpaired high surrogate \\u escape at offset 8");
    Json::parse("\"\\udc00x\"", &err);
    EXPECT_EQ(err, "lone low surrogate \\u escape at offset 1");
}

TEST(JsonTest, SurrogatePairDecodesToOneCodePoint)
{
    std::string err;
    Json s = Json::parse("\"\\ud83d\\ude00\"", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(s.asString(), "\xF0\x9F\x98\x80");
    EXPECT_TRUE(Json::parse(s.dump(), &err) == s) << err;
}

namespace
{

/** The number formatter Json::dump used before to_chars: the first
 *  "%.*g" precision from 1 to 16 that reads back through strtod,
 *  else "%.17g"; integers below 1e15 as "%.0f". The oracle the
 *  current formatter must match byte for byte. */
std::string
probeLoopNumber(double d)
{
    if (std::isnan(d) || std::isinf(d))
        return "null";
    char buf[32];
    if (d == std::floor(d) && std::fabs(d) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", d);
        return buf;
    }
    for (int prec = 1; prec < 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d)
            return buf;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
}

} // namespace

TEST(JsonTest, NumbersDumpAsShortestRoundTrip)
{
    const double two_m24 = std::ldexp(1.0, -24);
    const double two_89 = std::ldexp(1.0, 89);
    const std::pair<double, const char *> fixed[] = {
        {0.0, "0"},
        {-0.0, "-0"},
        {42.0, "42"},
        {-17.0, "-17"},
        {999999999999999.0, "999999999999999"},
        {std::numeric_limits<double>::quiet_NaN(), "null"},
        {-std::numeric_limits<double>::infinity(), "null"},
        // Subnormals and the ends of the range.
        {std::numeric_limits<double>::denorm_min(), "5e-324"},
        {-std::numeric_limits<double>::denorm_min(), "-5e-324"},
        {std::nextafter(DBL_MIN, 0.0), "2.225073858507201e-308"},
        {DBL_MIN, "2.2250738585072014e-308"},
        {DBL_MAX, "1.7976931348623157e+308"},
        {-DBL_MAX, "-1.7976931348623157e+308"},
        // 1e15 is where integers stop printing as "%.0f".
        {1e15, "1e+15"},
        {-1e15, "-1e+15"},
        {std::nextafter(1e15, 0.0), "999999999999999.9"},
        {std::nextafter(1e15, INFINITY), "1000000000000000.1"},
        {std::ldexp(1.0, 53), "9007199254740992"},
        {0.1, "0.1"},
        {1e-5, "1e-05"},
        {123456.5, "123456.5"},
        {-17.25, "-17.25"},
        {1.0 / 3.0, "0.3333333333333333"},
        // Around powers of two. At 2^-24, 2^89 and 2^-1017 the
        // correctly rounded 16-digit candidate reads back as a
        // neighbour, so the probe steps up to 17 digits.
        {std::nextafter(1.0, 2.0), "1.0000000000000002"},
        {std::nextafter(1.0, 0.0), "0.9999999999999999"},
        {two_m24, "5.9604644775390625e-08"},
        {std::nextafter(two_m24, 0.0), "5.960464477539062e-08"},
        {std::nextafter(two_m24, 1.0), "5.960464477539064e-08"},
        {two_89, "6.1897001964269014e+26"},
        {std::nextafter(two_89, 0.0), "6.189700196426901e+26"},
        {std::nextafter(two_89, INFINITY), "6.189700196426903e+26"},
        {std::ldexp(1.0, -1017), "7.1202363472230444e-307"},
    };
    for (const auto &[d, text] : fixed) {
        EXPECT_EQ(Json(d).dump(), text) << std::hexfloat << d;
        EXPECT_EQ(probeLoopNumber(d), text) << std::hexfloat << d;
    }

    // Seeded property check against the probe loop: random bit
    // patterns (every exponent, subnormals included), short scaled
    // decimals like the simulator's figures, and ratios.
    std::mt19937_64 rng(20260417);
    constexpr int n = 1'000'002;
    int mismatches = 0;
    for (int i = 0; i < n; ++i) {
        double d;
        switch (i % 3) {
          case 0: {
            std::uint64_t bits = rng();
            std::memcpy(&d, &bits, sizeof(d));
            break;
          }
          case 1:
            d = static_cast<double>(rng() % 2'000'001) /
                std::pow(10.0, static_cast<double>(rng() % 12));
            if (rng() & 1)
                d = -d;
            break;
          default:
            d = static_cast<double>(rng() % 100'000 + 1) /
                static_cast<double>(rng() % 100'000 + 1);
        }
        std::string want = probeLoopNumber(d);
        std::string got = Json(d).dump();
        if (got != want && ++mismatches <= 5)
            ADD_FAILURE() << std::hexfloat << d << ": dumped " << got
                          << ", probe loop " << want;
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(JsonTest, ObjectPreservesInsertionOrder)
{
    Json doc = Json::object();
    doc.set("zebra", Json(1));
    doc.set("alpha", Json(2));
    doc.set("mid", Json(3));
    EXPECT_EQ(doc.items()[0].first, "zebra");
    EXPECT_EQ(doc.items()[1].first, "alpha");
    EXPECT_EQ(doc.items()[2].first, "mid");
}

// ---- StatRegistry -------------------------------------------------

TEST_F(StatsJsonTest, RegistryJsonRoundTrip)
{
    StatGroup a("alpha");
    a.inc("x", 3);
    a.inc("y", 7);
    StatGroup b("beta");
    b.inc("z", 11);

    Json snap = StatRegistry::instance().toJson();
    std::string err;
    Json back = Json::parse(snap.dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;

    std::vector<StatGroup> parsed =
        StatRegistry::parseSnapshot(back);
    // The snapshot includes every live group in the process (other
    // tests' fixtures may be alive); ours must round-trip exactly.
    bool found_a = false, found_b = false;
    for (const StatGroup &g : parsed) {
        if (g.groupName() == "alpha" && g == a)
            found_a = true;
        if (g.groupName() == "beta" && g == b)
            found_b = true;
    }
    EXPECT_TRUE(found_a);
    EXPECT_TRUE(found_b);
}

TEST_F(StatsJsonTest, GroupsRegisterForTheirLifetime)
{
    const StatRegistry &reg = StatRegistry::instance();
    std::size_t before = reg.groups().size();
    {
        StatGroup g("ephemeral");
        g.inc("n");
        EXPECT_EQ(reg.groups().size(), before + 1);
        EXPECT_NE(reg.findGroup("ephemeral"), nullptr);
    }
    EXPECT_EQ(reg.groups().size(), before);
    EXPECT_EQ(reg.findGroup("ephemeral"), nullptr);
}

TEST_F(StatsJsonTest, RetiredCountersAccumulateWhenRetained)
{
    StatRegistry &reg = StatRegistry::instance();
    reg.setRetainRetired(true);
    for (int i = 0; i < 3; ++i) {
        StatGroup g("transient");
        g.inc("events", 5);
    }
    Json snap = reg.toJson();
    bool found = false;
    const Json &groups = snap.at("stat_groups");
    for (std::size_t i = 0; i < groups.size(); ++i) {
        const Json &g = groups.at(i);
        if (g.at("name").asString() == "transient.retired") {
            EXPECT_EQ(g.at("counters").at("events").asUint(), 15u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    reg.setRetainRetired(false);
    // Disabling retention clears the aggregate.
    EXPECT_EQ(reg.toJson().dump().find("transient.retired"),
              std::string::npos);
}

// ---- trace ring buffer --------------------------------------------

TEST_F(TraceRingTest, RingOverflowKeepsNewestRecords)
{
    Tracer &tr = Tracer::instance();
    tr.enable(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        tr.setCycle(100 + i);
        tr.instant(TraceEvent::Mark, "m", i);
    }
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.capacity(), 4u);
    EXPECT_EQ(tr.dropped(), 6u);
    // Oldest surviving record is the 7th emitted (arg 6).
    for (std::size_t i = 0; i < tr.size(); ++i) {
        EXPECT_EQ(tr.at(i).arg, 6 + i);
        EXPECT_EQ(tr.at(i).cycle, 106 + i);
    }
    // Export reports the loss. The event array leads with metadata
    // (one process_name + one thread_name for the single lane in use)
    // before the 4 surviving records.
    Json doc = tr.toChromeJson();
    EXPECT_EQ(doc.at("otherData").at("dropped_records").asUint(), 6u);
    std::size_t records = 0;
    std::size_t metadata = 0;
    for (std::size_t i = 0; i < doc.at("traceEvents").size(); ++i) {
        const Json &ev = doc.at("traceEvents").at(i);
        if (ev.at("ph").asString() == "M")
            ++metadata;
        else
            ++records;
    }
    EXPECT_EQ(records, 4u);
    EXPECT_EQ(metadata, 2u);
}

TEST_F(TraceRingTest, DisabledTracerRecordsNothing)
{
    Tracer &tr = Tracer::instance();
    tr.enable(8);
    tr.disable();
    tr.instant(TraceEvent::Mark, "ignored");
    EXPECT_EQ(tr.size(), 0u);
}

TEST_F(TraceRingTest, ClockNeverMovesBackwards)
{
    Tracer &tr = Tracer::instance();
    tr.enable(8);
    tr.setCycle(50);
    tr.setCycle(20);
    EXPECT_EQ(tr.cycle(), 50u);
    tr.complete(60, 5, TraceEvent::Mark, "m");
    EXPECT_EQ(tr.cycle(), 65u);
}

// ---- event ordering under a simulated context switch ---------------

TEST_F(TraceOrderTest, ContextSwitchEmitsOrderedEvents)
{
    Tracer &tr = Tracer::instance();
    tr.enable(1 << 12);

    SimKernel kernel(makeMachine(MachineId::CVAX));
    AddressSpace &a = kernel.createSpace("a");
    AddressSpace &b = kernel.createSpace("b");
    a.setWorkingSet(0x1000, 8);
    b.setWorkingSet(0x2000, 8);
    a.mapRange(0x1000, 8, 0x9000, {});
    b.mapRange(0x2000, 8, 0xa000, {});

    kernel.contextSwitchTo(a);
    std::size_t start = tr.size();
    kernel.contextSwitchTo(b);

    auto records = tr.snapshot();
    ASSERT_GT(records.size(), start);

    // The switch must open with Begin and close with End, and the
    // purge/refill activity must land between them in cycle order.
    const TraceRecord &first = records[start];
    const TraceRecord &last = records.back();
    EXPECT_EQ(first.event, TraceEvent::ContextSwitch);
    EXPECT_EQ(first.phase, TracePhase::Begin);
    EXPECT_EQ(last.event, TraceEvent::ContextSwitch);
    EXPECT_EQ(last.phase, TracePhase::End);
    EXPECT_GE(last.cycle, first.cycle);

    bool saw_purge = false, saw_miss = false, saw_fill = false;
    Cycles prev = first.cycle;
    for (std::size_t i = start; i < records.size(); ++i) {
        const TraceRecord &r = records[i];
        EXPECT_GE(r.cycle, prev)
            << "event " << i << " (" << r.name
            << ") timestamped before its predecessor";
        prev = r.cycle;
        saw_purge |= r.event == TraceEvent::TlbPurge;
        saw_miss |= r.event == TraceEvent::TlbMiss;
        saw_fill |= r.event == TraceEvent::TlbFill;
    }
    // The CVAX TLB is untagged: the switch purges, then the target's
    // working set refills.
    EXPECT_TRUE(saw_purge);
    EXPECT_TRUE(saw_miss);
    EXPECT_TRUE(saw_fill);
}

TEST_F(TraceOrderTest, SyscallEmitsCompleteEventWithCost)
{
    Tracer &tr = Tracer::instance();
    tr.enable(64);

    SimKernel kernel(makeMachine(MachineId::R3000));
    Cycles before = kernel.elapsedCycles();
    kernel.syscall();
    Cycles cost = kernel.elapsedCycles() - before;

    auto records = tr.snapshot();
    ASSERT_FALSE(records.empty());
    const TraceRecord &r = records.back();
    EXPECT_EQ(r.event, TraceEvent::Syscall);
    EXPECT_EQ(r.phase, TracePhase::Complete);
    EXPECT_EQ(r.duration, cost);
}

// The tlb_misses counter track plots the TLB's own miss count, so it
// rises with every miss even with the hardware counters off (outside
// a counter window they read 0).
TEST_F(TraceOrderTest, TlbMissTrackCountsEveryMissWithCountersOff)
{
    Tracer &tr = Tracer::instance();
    tr.enable(1 << 10);
    ASSERT_FALSE(countersEnabled());

    SimKernel kernel(makeMachine(MachineId::R3000));
    AddressSpace &a = kernel.createSpace("a");
    a.mapRange(0x1000, 4, 0x9000, {});
    const StatGroup &tlb = kernel.tlb().stats();
    const std::uint64_t misses_before = tlb.get("misses");
    kernel.contextSwitchTo(a);
    kernel.touchPages({0x1000, 0x1001, 0x1002, 0x1003}, false);

    std::vector<std::uint64_t> track;
    for (const TraceRecord &r : tr.snapshot())
        if (r.event == TraceEvent::Counter &&
            std::strcmp(r.name, "tlb_misses") == 0)
            track.push_back(r.arg);
    const std::uint64_t misses = tlb.get("misses") - misses_before;
    ASSERT_GE(misses, 4u);
    ASSERT_EQ(track.size(), misses);
    for (std::size_t i = 1; i < track.size(); ++i)
        EXPECT_EQ(track[i], track[i - 1] + 1) << "sample " << i;
    EXPECT_EQ(track.back(), tlb.get("misses"));
}

namespace
{

/** The Complete records of one event class, oldest first. */
std::vector<TraceRecord>
recordsOf(TraceEvent event)
{
    std::vector<TraceRecord> out;
    for (const TraceRecord &r : Tracer::instance().snapshot())
        if (r.event == event && r.phase == TracePhase::Complete)
            out.push_back(r);
    return out;
}

struct ExpectedPhase
{
    const char *name;
    double us;
    std::uint64_t arg = 0;
};

/** `records` are `want`, in order, each lasting its component's
 *  cycles and carrying its arg. */
void
expectPhases(const std::vector<TraceRecord> &records,
             const std::vector<ExpectedPhase> &want, const Clock &clock)
{
    ASSERT_EQ(records.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_STREQ(records[i].name, want[i].name);
        EXPECT_EQ(records[i].duration, clock.microsToCycles(want[i].us))
            << want[i].name;
        EXPECT_EQ(records[i].arg, want[i].arg) << want[i].name;
        if (i > 0) {
            EXPECT_EQ(records[i].cycle,
                      records[i - 1].cycle + records[i - 1].duration)
                << want[i].name;
        }
    }
}

} // namespace

TEST_F(TraceOrderTest, IpcAndHandlerPhasesEmitOneRecordPerComponent)
{
    // CVAX: an untagged TLB, so the LRPC round trip refills.
    const MachineDesc m = makeMachine(MachineId::CVAX);
    Tracer &tr = Tracer::instance();
    tr.enable(1 << 16);

    LrpcModel lrpc(m);
    const std::uint64_t misses = lrpc.steadyStateTlbMisses();
    ASSERT_GT(misses, 0u);
    tr.clear();
    LrpcBreakdown lb = lrpc.nullCall();
    expectPhases(recordsOf(TraceEvent::RpcPhase),
                 {{"lrpc_stubs", lb.stubUs},
                  {"lrpc_kernel_entry", lb.kernelEntryUs},
                  {"lrpc_validation", lb.validationUs},
                  {"lrpc_context_switch", lb.contextSwitchUs},
                  {"lrpc_tlb_refill", lb.tlbMissUs, misses},
                  {"lrpc_arg_copy", lb.argCopyUs}},
                 m.clock);

    tr.clear();
    RpcBreakdown rb = SrcRpcModel(m).roundTrip(74, 1500);
    expectPhases(recordsOf(TraceEvent::RpcPhase),
                 {{"rpc_client_stub", rb.clientStubUs, 74},
                  {"rpc_kernel_transfer", rb.kernelTransferUs},
                  {"rpc_copy", rb.copyUs},
                  {"rpc_checksum", rb.checksumUs},
                  {"rpc_controller", rb.controllerUs},
                  {"rpc_wire", rb.wireUs},
                  {"rpc_interrupts", rb.interruptUs},
                  {"rpc_server_stub", rb.serverStubUs, 1500},
                  {"rpc_dispatch", rb.dispatchUs}},
                 m.clock);

    // URPC lays nothing on the timeline.
    tr.clear();
    UrpcModel(m).nullCall();
    EXPECT_TRUE(recordsOf(TraceEvent::RpcPhase).empty());

    // The tracer selects the interpreter, which reports every handler
    // phase as one ExecPhase record: its name, cycles, instructions.
    tr.clear();
    ExecModel exec(m);
    ExecResult r = exec.runPrimitive(Primitive::NullSyscall);
    std::vector<TraceRecord> phases = recordsOf(TraceEvent::ExecPhase);
    ASSERT_EQ(phases.size(), r.phases.size());
    ASSERT_GT(phases.size(), 1u);
    for (std::size_t i = 0; i < phases.size(); ++i) {
        EXPECT_STREQ(phases[i].name, phaseName(r.phases[i].kind));
        EXPECT_EQ(phases[i].duration, r.phases[i].cycles);
        EXPECT_EQ(phases[i].arg, r.phases[i].instructions);
    }
}
