// Must NOT compile: built with memo_trace's own compile options, a
// discarded IoStatus is an error (see trace/file_io.hh). The
// compile_fail_discarded_io ctest builds this file and requires the
// unused-result error.
#include "trace/file_io.hh"

void
writeAndForget()
{
    memo::writeWholeFile("probe.bin", "bytes");
}
