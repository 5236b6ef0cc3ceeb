/**
 * @file
 * Tests for binary trace serialization (trace/io).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/io.hh"
#include "trace/recorder.hh"

namespace memo
{
namespace
{

Trace
sampleTrace()
{
    Trace trace;
    Recorder rec(trace);
    double buf[4] = {1.0, 2.0, 3.0, 4.0};
    rec.mul(2.5, 4.0);
    rec.div(10.0, 3.0);
    rec.imul(-7, 6);
    rec.load(buf[2]);
    rec.store(buf[1], 9.0);
    rec.alu(3);
    rec.branch();
    rec.sqrt(2.0);
    return trace;
}

void
expectEqualTraces(const Trace &original, const Trace &back);

TEST(TraceIo, RoundTripCompressed)
{
    Trace original = sampleTrace();
    std::stringstream ss;
    writeTrace(original, ss); // v2 by default
    Trace back = readTrace(ss);
    expectEqualTraces(original, back);
}

TEST(TraceIo, RoundTripFixed)
{
    Trace original = sampleTrace();
    std::stringstream ss;
    writeTrace(original, ss, false); // v1
    Trace back = readTrace(ss);
    expectEqualTraces(original, back);
}

void
expectEqualTraces(const Trace &original, const Trace &back)
{

    ASSERT_EQ(back.size(), original.size());
    for (size_t i = 0; i < original.size(); i++) {
        const Instruction &a = original[i];
        const Instruction &b = back[i];
        EXPECT_EQ(a.cls, b.cls) << i;
        EXPECT_EQ(a.pc, b.pc) << i;
        EXPECT_EQ(a.a, b.a) << i;
        EXPECT_EQ(a.b, b.b) << i;
        EXPECT_EQ(a.result, b.result) << i;
        EXPECT_EQ(a.addr, b.addr) << i;
    }
}

TEST(TraceIo, CompressionShrinksRepetitiveTraces)
{
    // A realistic stream: repeated operands, sequential addresses.
    Trace trace;
    Recorder rec(trace);
    std::vector<double> data(256, 1.5);
    for (int r = 0; r < 20; r++) {
        for (int i = 0; i < 256; i++) {
            double v = rec.load(data[static_cast<size_t>(i)]);
            rec.mul(v, 3.0);
            rec.div(v, 255.0);
        }
    }
    std::stringstream fixed, delta;
    writeTrace(trace, fixed, false);
    writeTrace(trace, delta, true);
    EXPECT_LT(delta.str().size() * 3, fixed.str().size());

    Trace back = readTrace(delta);
    expectEqualTraces(trace, back);
}

TEST(TraceIo, EmptyTrace)
{
    Trace empty;
    std::stringstream ss;
    writeTrace(empty, ss);
    Trace back = readTrace(ss);
    EXPECT_EQ(back.size(), 0u);
}

TEST(TraceIo, FixedFormatIsPacked)
{
    Trace t = sampleTrace();
    std::stringstream ss;
    writeTrace(t, ss, false);
    // 16-byte header + 37 bytes per record, no padding.
    EXPECT_EQ(ss.str().size(), 16u + 37u * t.size());
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream ss("NOTATRACE-------");
    EXPECT_THROW(readTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsTruncation)
{
    Trace t = sampleTrace();
    std::stringstream ss;
    writeTrace(t, ss, false);
    std::string data = ss.str();
    std::stringstream cut(data.substr(0, data.size() - 10));
    EXPECT_THROW(readTrace(cut), std::runtime_error);
}

TEST(TraceIo, RejectsImpossibleCount)
{
    // A header claiming 2^32 - 1 records over no record bytes reads
    // as truncated rather than allocating for the claimed count.
    for (char version : {'\1', '\2'}) {
        std::string data("MEMOTRC\0", 8);
        data += std::string{version, 0, 0, 0};
        data += std::string(4, '\xff');
        std::stringstream ss(data);
        EXPECT_THROW(readTrace(ss), std::runtime_error)
            << "version " << int(version);
    }
}

TEST(TraceIo, RejectsBadClass)
{
    Trace t = sampleTrace();
    std::stringstream ss;
    writeTrace(t, ss, false);
    std::string data = ss.str();
    data[16] = 127; // corrupt the first record's class byte
    std::stringstream bad(data);
    EXPECT_THROW(readTrace(bad), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip)
{
    Trace t = sampleTrace();
    std::string path = "/tmp/memo_trace_io_test.bin";
    writeTrace(t, path);
    Trace back = readTrace(path);
    EXPECT_EQ(back.size(), t.size());
    std::remove(path.c_str());
}

TEST(TraceIo, FileWriteTruncatesAnEarlierTrace)
{
    // A shorter trace written over a longer one must read back alone,
    // with no tail of the earlier file's records.
    Trace longer = sampleTrace();
    Trace tail = sampleTrace();
    for (size_t i = 0; i < tail.size(); i++)
        longer.push(tail[i]);
    Trace shorter = sampleTrace();
    std::string path = "/tmp/memo_trace_io_truncate_test.bin";
    writeTrace(longer, path, false);
    writeTrace(shorter, path, false);
    Trace back = readTrace(path);
    expectEqualTraces(shorter, back);
    std::remove(path.c_str());
}

TEST(TraceIo, FileWriteToMissingDirectoryNamesThePath)
{
    const std::string path = "/tmp/memo_trace_io_no_such_dir/t.bin";
    try {
        writeTrace(sampleTrace(), path);
        FAIL() << "writeTrace into a missing directory did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "trace: cannot create " + path);
    }
}

TEST(TraceIo, FileWriteToFullDeviceThrows)
{
    // /dev/full opens fine and fails every write: the short write must
    // surface as an error, not as a silently truncated trace file.
    try {
        writeTrace(sampleTrace(), "/dev/full");
        FAIL() << "writeTrace to /dev/full did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "trace: write failed on /dev/full");
    }
}

} // anonymous namespace
} // namespace memo
