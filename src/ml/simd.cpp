#include "ml/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace smart::ml {

namespace {

// -1 = unread; otherwise the Precision enum value.
std::atomic<int> g_precision{-1};

int precision_env_default() {
  const char* raw = std::getenv("SMART_PRECISION");
  if (raw == nullptr || *raw == '\0') {
    return static_cast<int>(Precision::kStrict);
  }
  return static_cast<int>(precision_from_string(raw));
}

}  // namespace

Precision inference_precision() noexcept {
  int v = g_precision.load(std::memory_order_relaxed);
  if (v < 0) {
    v = precision_env_default();
    g_precision.store(v, std::memory_order_relaxed);
  }
  return static_cast<Precision>(v);
}

void set_inference_precision(Precision p) noexcept {
  g_precision.store(static_cast<int>(p), std::memory_order_relaxed);
}

Precision precision_from_string(const char* name) {
  const std::string s = name == nullptr ? "" : name;
  if (s == "f64") return Precision::kStrict;
  if (s == "f32") return Precision::kRelaxed;
  throw std::invalid_argument("precision must be 'f64' or 'f32', got '" + s +
                              "'");
}

}  // namespace smart::ml
