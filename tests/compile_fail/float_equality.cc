// Must NOT compile: every target builds with -Werror=float-equal (root
// CMakeLists.txt), so an exact float compare outside memo::fpExactEq
// is an error. The compile_fail_float_equality ctest builds this file
// and requires that error. Both operands are variables: Clang exempts
// a compare against an exactly representable literal (`d == 1.0`), so
// only a variable-to-variable compare fails under GCC and Clang alike.
bool
f(double a, double b)
{
    return a == b;
}
