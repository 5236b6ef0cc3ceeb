/**
 * @file
 * Binary trace serialization.
 *
 * Lets traces be captured once and replayed by external tools or
 * later sessions (the Shade workflow: trace collection and analysis
 * are separate steps). Two formats share a little-endian header
 * (magic, version, instruction count):
 *  - v1: packed fixed-width records (37 bytes each);
 *  - v2 (default): per-class XOR-delta fields in LEB128 varints —
 *    repeated operands and sequential addresses, the norm in these
 *    traces, shrink to a byte or two per field.
 * Readers auto-detect the version. Both are independent of host
 * struct layout.
 */

#ifndef MEMO_TRACE_IO_HH
#define MEMO_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "trace/trace.hh"

namespace memo
{

/**
 * Write @p trace to a stream. Throws std::runtime_error on failure.
 * @param compressed v2 delta/varint format (default) or fixed v1
 */
void writeTrace(const Trace &trace, std::ostream &out,
                bool compressed = true);

/** Write @p trace to @p path. Throws std::runtime_error naming the
 *  path when the file cannot be written in full. */
void writeTrace(const Trace &trace, const std::string &path,
                bool compressed = true);

/** Read a trace from a stream. Throws std::runtime_error on malformed
 *  or truncated input. */
Trace readTrace(std::istream &in);

/** Read a trace from @p path. */
Trace readTrace(const std::string &path);

} // namespace memo

#endif // MEMO_TRACE_IO_HH
