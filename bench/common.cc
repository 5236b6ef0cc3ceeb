#include "common.hh"

#include <iostream>

namespace memo::bench
{

void
printHeader(const std::string &title, const std::string &paper_ref)
{
    std::cout << "\n== " << title << " ==\n"
              << "   (reproduces " << paper_ref << ")\n\n";
}

} // namespace memo::bench
