// Seeded violations for rule banned-env. Never compiled — consumed by
// tools/gossip_lint.py --self-test only. The banned reads are left out
// so that tests/ names no environment read even as data; one regex
// alternation covers them and the writes below alike.
#include <cstdlib>

extern char** environ;  // finding: environment block

unsigned threads_from_environment() {
  ::setenv("THREADS", "4", 1);  // finding: environment write
  unsetenv("THREADS");          // finding: environment write
  putenv(nullptr);              // finding: environment write
  // A setenv() in a comment and "setenv(" in a string are fine.
  const char* text = "setenv(";
  (void)text;
  return environ != nullptr ? 4u : 1u;  // finding: environment block
}
