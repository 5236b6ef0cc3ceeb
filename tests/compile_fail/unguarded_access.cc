// Must NOT compile under Clang: reading a MEMO_GUARDED_BY field
// without holding its mutex is a thread-safety error in this project's
// build (root CMakeLists.txt). The compile_fail_unguarded_access ctest
// builds this file and requires that error for unlocked(); locked()
// shows the form the analysis accepts.
#include "core/annotations.hh"

class Counter
{
  public:
    int
    locked()
    {
        memo::MutexLock lock(m);
        return value;
    }

    int unlocked() { return value; }

  private:
    memo::Mutex m;
    int value MEMO_GUARDED_BY(m) = 0;
};

int
readBoth(Counter &c)
{
    return c.locked() + c.unlocked();
}
