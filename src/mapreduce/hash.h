#ifndef HATEN2_MAPREDUCE_HASH_H_
#define HATEN2_MAPREDUCE_HASH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "util/hash.h"

namespace haten2 {

/// Default shuffle hash: integral types, pairs, tuples and strings.
template <typename T, typename Enable = void>
struct ShuffleHash;

template <typename T>
struct ShuffleHash<T, std::enable_if_t<std::is_integral_v<T>>> {
  uint64_t operator()(const T& v) const {
    return Mix64(static_cast<uint64_t>(v));
  }
};

template <typename A, typename B>
struct ShuffleHash<std::pair<A, B>> {
  uint64_t operator()(const std::pair<A, B>& p) const {
    return HashCombine(ShuffleHash<A>()(p.first), ShuffleHash<B>()(p.second));
  }
};

template <typename... Ts>
struct ShuffleHash<std::tuple<Ts...>> {
  uint64_t operator()(const std::tuple<Ts...>& t) const {
    uint64_t seed = 0x8badf00dULL;
    std::apply(
        [&seed](const Ts&... vs) {
          ((seed = HashCombine(seed, ShuffleHash<Ts>()(vs))), ...);
        },
        t);
    return seed;
  }
};

template <>
struct ShuffleHash<std::string> {
  uint64_t operator()(const std::string& s) const {
    uint64_t seed = 0xcbf29ce484222325ULL;
    for (char c : s) {
      seed = HashCombine(seed, static_cast<uint64_t>(
                                   static_cast<unsigned char>(c)));
    }
    return seed;
  }
};

}  // namespace haten2

#endif  // HATEN2_MAPREDUCE_HASH_H_
