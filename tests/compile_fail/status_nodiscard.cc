// Compile-fail cases for the [[nodiscard]] Status and StatusOr<T>: each
// CASE drops one result, and the build must reject it under
// -Werror=unused-result (tests/CMakeLists.txt). CASE 0 is the control:
// every result is bound, checked or explicitly voided, so it compiles.
#include "common/status.h"
#include "common/status_or.h"

using blockplane::Status;
using blockplane::StatusOr;

Status LoadState(int epoch);  // prototype only: defined elsewhere

struct Journal {
  Status Append(int record);
};

StatusOr<int> ReadEpoch();

bool Recover(Journal* journal) {
#if CASE == 1
  LoadState(7);  // a free function's Status dropped
#elif CASE == 2
  journal->Append(1);  // a method's Status dropped
#elif CASE == 3
  ReadEpoch();  // a StatusOr dropped
#endif
  Status s = LoadState(1);
  if (!journal->Append(2).ok()) return false;
  (void)ReadEpoch();
  return s.ok();
}
