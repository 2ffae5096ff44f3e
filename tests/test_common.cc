/**
 * @file
 * Unit tests for the common utilities: RegMask, SatCounter, the
 * statistics registry and its declared counters, the deterministic
 * RNG, and the RingFifo circular buffer used on the simulation hot
 * path.
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/fifo.hh"
#include "common/logging.hh"
#include "common/reg_mask.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"

namespace msim {
namespace {

TEST(RegMask, BasicSetClearTest)
{
    RegMask m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.count(), 0);
    m.set(4);
    m.set(63);
    EXPECT_TRUE(m.test(4));
    EXPECT_TRUE(m.test(63));
    EXPECT_FALSE(m.test(5));
    EXPECT_EQ(m.count(), 2);
    m.clear(4);
    EXPECT_FALSE(m.test(4));
    EXPECT_EQ(m.count(), 1);
}

TEST(RegMask, TestOutOfRangeIsFalse)
{
    RegMask m{1, 2, 3};
    EXPECT_FALSE(m.test(-1));
    EXPECT_FALSE(m.test(64));
}

TEST(RegMask, SetOutOfRangePanics)
{
    RegMask m;
    EXPECT_THROW(m.set(64), PanicError);
    EXPECT_THROW(m.set(-1), PanicError);
}

TEST(RegMask, SetOperations)
{
    RegMask a{1, 2, 3};
    RegMask b{3, 4};
    EXPECT_EQ((a | b), (RegMask{1, 2, 3, 4}));
    EXPECT_EQ((a & b), (RegMask{3}));
    EXPECT_EQ((a - b), (RegMask{1, 2}));
    EXPECT_EQ((b - a), (RegMask{4}));
}

TEST(RegMask, ToStringUsesIntAndFpNames)
{
    RegMask m{4, 20, 35};
    EXPECT_EQ(m.toString(), "$4,$20,$f3");
}

TEST(RegMask, InitializerListMatchesSet)
{
    RegMask a{7, 8};
    RegMask b;
    b.set(7);
    b.set(8);
    EXPECT_EQ(a, b);
}

TEST(SatCounter, SaturatesAtBounds)
{
    SatCounter c(2, 0);
    EXPECT_EQ(c.value(), 0u);
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.taken());
}

TEST(SatCounter, TakenThreshold)
{
    SatCounter c(2, 1);
    EXPECT_FALSE(c.taken());  // 1 of 3
    c.increment();
    EXPECT_TRUE(c.taken());   // 2 of 3
}

TEST(SatCounter, BadWidthPanics)
{
    EXPECT_THROW(SatCounter(0), PanicError);
    EXPECT_THROW(SatCounter(9), PanicError);
    EXPECT_THROW(SatCounter(2, 4), PanicError);
}

TEST(Stats, GroupAccumulatesAndFormats)
{
    StatRegistry reg;
    StatGroup &g = reg.group("cache");
    g.add("hits");
    g.add("hits", 4);
    g.set("misses", 7);
    EXPECT_EQ(g.get("hits"), 5u);
    EXPECT_EQ(g.get("misses"), 7u);
    EXPECT_EQ(g.get("absent"), 0u);
    EXPECT_NE(reg.format().find("cache.hits 5"), std::string::npos);
}

TEST(Stats, GroupReferencesStayValidAcrossGrowth)
{
    StatRegistry reg;
    StatGroup &first = reg.group("g0");
    first.add("x");
    // Create many more groups; the first reference must stay valid.
    for (int i = 1; i < 100; ++i)
        reg.group("g" + std::to_string(i)).add("y");
    first.add("x");
    EXPECT_EQ(reg.group("g0").get("x"), 2u);
}

TEST(Stats, SameNameReturnsSameGroup)
{
    StatRegistry reg;
    reg.group("a").add("n");
    reg.group("a").add("n");
    EXPECT_EQ(reg.group("a").get("n"), 2u);
    EXPECT_EQ(reg.groups().size(), 1u);
}

TEST(Counter, UntouchedCounterPrintsNoRow)
{
    StatRegistry reg;
    StatGroup &g = reg.group("cache");
    Counter hits(g, "hits");
    Counter misses(g, "misses");
    hits.add();
    EXPECT_EQ(reg.format(), "cache.hits 1\n");
    EXPECT_EQ(g.scalars().count("misses"), 0u);
    EXPECT_EQ(g.scalars().size(), 1u);
}

TEST(Counter, AddOfZeroCreatesTheRow)
{
    StatGroup g("bus");
    Counter contention(g, "contentionCycles");
    contention.add(0);
    ASSERT_EQ(g.scalars().count("contentionCycles"), 1u);
    EXPECT_EQ(g.format(), "bus.contentionCycles 0\n");
}

TEST(Counter, ResetZeroesTheValueAndKeepsTheRow)
{
    StatGroup g("pu0");
    Counter instructions(g, "instructions");
    instructions.add(41);
    g.reset();
    EXPECT_EQ(g.get("instructions"), 0u);
    EXPECT_EQ(g.format(), "pu0.instructions 0\n");
    // The counter still bumps the same row after the reset.
    instructions.add();
    EXPECT_EQ(g.get("instructions"), 1u);
    EXPECT_EQ(g.scalars().size(), 1u);
}

TEST(Counter, GetReadsTheDeclaredCounter)
{
    StatGroup g("arb");
    Counter loads(g, "loads");
    loads.add(3);
    loads.add();
    EXPECT_EQ(g.get("loads"), 4u);
    // Counters and string-keyed adds of one name share the row.
    g.add("loads", 2);
    loads.add();
    EXPECT_EQ(g.get("loads"), 7u);
    EXPECT_STREQ(loads.name(), "loads");
}

TEST(Counter, GroupAndRowOrderMatchStringKeyedStats)
{
    // The same events, bumped through counters and by name, print
    // the same text: groups in creation order, rows in name order.
    StatRegistry byName;
    byName.group("core").add("squash_memory");
    byName.group("bus").add("words", 8);
    byName.group("core").add("assignments");
    byName.group("bus").add("requests");

    StatRegistry declared;
    StatGroup &core = declared.group("core");
    StatGroup &bus = declared.group("bus");
    Counter assignments(core, "assignments");
    Counter squashMemory(core, "squash_memory");
    Counter requests(bus, "requests");
    Counter words(bus, "words");
    squashMemory.add();
    words.add(8);
    assignments.add();
    requests.add();

    EXPECT_EQ(declared.format(), byName.format());
    EXPECT_EQ(declared.format(),
              "core.assignments 1\ncore.squash_memory 1\n"
              "bus.requests 1\nbus.words 8\n");
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Logging, FatalAndPanicCarryMessages)
{
    try {
        fatal("bad thing ", 42);
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad thing 42"),
                  std::string::npos);
    }
    EXPECT_THROW(panicIf(true, "boom"), PanicError);
    EXPECT_NO_THROW(panicIf(false, "boom"));
    EXPECT_NO_THROW(fatalIf(false, "boom"));
}

TEST(RingFifo, FifoOrderAcrossWraparound)
{
    RingFifo<int> f(4);
    // Interleave pushes and pops so head_ wraps the backing buffer
    // several times without ever growing it.
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 10; ++round) {
        f.push_back(next_in++);
        f.push_back(next_in++);
        f.push_back(next_in++);
        EXPECT_EQ(f.front(), next_out);
        f.pop_front();
        ++next_out;
        f.pop_front();
        ++next_out;
        f.pop_front();
        ++next_out;
    }
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.capacity(), 4u);
}

TEST(RingFifo, GrowthPreservesOrderFromAWrappedState)
{
    RingFifo<int> f(4);
    // Rotate so head_ is mid-buffer, then force growth.
    f.push_back(-1);
    f.push_back(-2);
    f.pop_front();
    f.pop_front();
    for (int i = 0; i < 20; ++i)
        f.push_back(i);
    ASSERT_EQ(f.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(f[size_t(i)], i);
    EXPECT_EQ(f.front(), 0);
    EXPECT_EQ(f.back(), 19);
}

TEST(RingFifo, TruncateDropsTheTail)
{
    RingFifo<int> f;
    for (int i = 0; i < 6; ++i)
        f.push_back(i);
    f.truncate(2);
    ASSERT_EQ(f.size(), 2u);
    EXPECT_EQ(f[0], 0);
    EXPECT_EQ(f[1], 1);
    // Elements pushed after a truncate land where the tail was.
    f.push_back(100);
    EXPECT_EQ(f.back(), 100);
    f.truncate(0);
    EXPECT_TRUE(f.empty());
}

TEST(RingFifo, ClearKeepsCapacity)
{
    RingFifo<int> f(16);
    for (int i = 0; i < 10; ++i)
        f.push_back(i);
    const size_t cap = f.capacity();
    f.clear();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.capacity(), cap);
    f.push_back(7);
    EXPECT_EQ(f.front(), 7);
}

TEST(RingFifo, ReserveRoundsUpToPowerOfTwo)
{
    RingFifo<int> f;
    f.reserve(5);
    EXPECT_EQ(f.capacity(), 8u);
    f.reserve(3);  // never shrinks
    EXPECT_EQ(f.capacity(), 8u);
    RingFifo<int> g(16);
    EXPECT_EQ(g.capacity(), 16u);
}

TEST(RingFifo, MisusePanics)
{
    RingFifo<int> f(2);
    EXPECT_THROW(f.pop_front(), PanicError);
    f.push_back(1);
    EXPECT_THROW(f[1], PanicError);
    EXPECT_THROW(f.truncate(2), PanicError);
}

TEST(RingFifo, MatchesDequeUnderRandomOperations)
{
    RingFifo<int> f;
    std::deque<int> ref;
    Rng rng(1234);
    int counter = 0;
    for (int step = 0; step < 5000; ++step) {
        const unsigned op = unsigned(rng.below(10));
        if (op < 5) {
            f.push_back(counter);
            ref.push_back(counter);
            ++counter;
        } else if (op < 8) {
            if (!ref.empty()) {
                EXPECT_EQ(f.front(), ref.front());
                f.pop_front();
                ref.pop_front();
            }
        } else if (op == 8) {
            const size_t n = size_t(rng.below(ref.size() + 1));
            f.truncate(n);
            ref.resize(n);
        } else if (!ref.empty()) {
            const size_t i = size_t(rng.below(ref.size()));
            EXPECT_EQ(f[i], ref[i]);
        }
        ASSERT_EQ(f.size(), ref.size());
    }
}

} // namespace
} // namespace msim
