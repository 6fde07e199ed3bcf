#include "exec/executor.h"

#include <thread>

namespace starburst::exec {

size_t ExecOptions::DefaultParallelism() {
  unsigned int n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace starburst::exec
