// Shared helper: which backends the backend-parametrized tests sweep.
#pragma once

#include <vector>

#include "parallel/backend.h"

namespace pp_test {

inline std::vector<pp::backend_kind> backends_under_test() {
  return {pp::backend_kind::sequential, pp::backend_kind::native};
}

}  // namespace pp_test
