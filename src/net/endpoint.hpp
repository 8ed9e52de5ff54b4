// ConGrid -- transport endpoint addressing.
//
// An Endpoint names a place a Frame can be sent. The scheme prefix selects
// the transport family:
//   sim:<node-id>       deterministic simulated network node
//   tcp:<host>:<port>   real socket listener
// Endpoints are plain value types; the transport that created them knows how
// to interpret the rest of the string.
#pragma once

#include <functional>
#include <string>

namespace cg::net {

struct Endpoint {
  std::string value;

  bool operator==(const Endpoint&) const = default;
  auto operator<=>(const Endpoint&) const = default;
  bool empty() const { return value.empty(); }
};

inline Endpoint sim_endpoint(std::uint32_t node_id) {
  return Endpoint{"sim:" + std::to_string(node_id)};
}

inline Endpoint tcp_endpoint(const std::string& host, std::uint16_t port) {
  return Endpoint{"tcp:" + host + ":" + std::to_string(port)};
}

}  // namespace cg::net

template <>
struct std::hash<cg::net::Endpoint> {
  std::size_t operator()(const cg::net::Endpoint& e) const noexcept {
    return std::hash<std::string>{}(e.value);
  }
};
