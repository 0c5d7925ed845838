// Exhaustive corruption sweeps for decoders of network bytes: every strict
// prefix of a valid frame and every single-bit flip of it. The sanitizer
// CI job runs the suites that use it, so an over-read shows up there too.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <stdexcept>
#include <string>

namespace waldo::testing {

/// Calls `visit` with every strict prefix of `good`, then with every
/// single-bit flip of it.
template <typename Visit>
void for_each_truncation_and_flip(const std::string& good, Visit visit) {
  for (std::size_t len = 0; len < good.size(); ++len) {
    visit(good.substr(0, len));
  }
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      visit(bad);
    }
  }
}

/// Every strict prefix of `good` must throw std::runtime_error. Every
/// single-bit flip must either decode or throw std::runtime_error — never
/// another exception type.
template <typename Decode>
void expect_truncations_rejected_and_flips_contained(const std::string& good,
                                                     Decode decode) {
  ASSERT_NO_THROW((void)decode(good));
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW((void)decode(good.substr(0, len)), std::runtime_error)
        << "truncation to " << len << " of " << good.size() << " bytes";
  }
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      try {
        (void)decode(bad);
      } catch (const std::runtime_error&) {
        // a clean rejection
      } catch (const std::exception& e) {
        ADD_FAILURE() << "flip of bit " << bit << " in byte " << byte
                      << " threw a non-runtime_error: " << e.what();
      } catch (...) {
        ADD_FAILURE() << "flip of bit " << bit << " in byte " << byte
                      << " threw a non-standard exception";
      }
    }
  }
}

/// For framings with an integrity check: every strict prefix of `good` and
/// every single-bit flip of it must throw std::runtime_error.
template <typename Decode>
void expect_truncations_and_flips_rejected(const std::string& good,
                                           Decode decode) {
  ASSERT_NO_THROW((void)decode(good));
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW((void)decode(good.substr(0, len)), std::runtime_error)
        << "truncation to " << len << " of " << good.size() << " bytes";
  }
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      EXPECT_THROW((void)decode(bad), std::runtime_error)
          << "flip of bit " << bit << " in byte " << byte << " accepted";
    }
  }
}

}  // namespace waldo::testing
