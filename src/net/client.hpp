// spiv::net::Client — blocking line client for the spiv-serve protocol.
//
// The synchronous counterpart of the server's event loop: one connected
// socket, send whole lines, receive whole lines (buffered, '\r'-tolerant).
// Used by perfbench's closed-loop load client and the net tests; anything
// fancier (pipelining, concurrency) is built on top by running several
// clients, exactly like real callers would.
#pragma once

#include <optional>
#include <string>

#include "net/socket.hpp"

namespace spiv::net {

class Client {
 public:
  Client() = default;

  /// Connect; false (with `error()` set) on failure.
  bool connect_unix(const std::string& path);
  bool connect_tcp(const std::string& host, int port);

  [[nodiscard]] bool connected() const { return fd_.valid(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Send `line` + '\n' (handles short writes); false on a broken socket.
  bool send_line(const std::string& line);

  /// Send bytes verbatim, no terminator — for tests that need to split a
  /// protocol line across writes.
  bool send_raw(const std::string& bytes);

  /// Receive the next line (terminator stripped, trailing '\r' dropped).
  /// nullopt on EOF or error; a final unterminated line is delivered.
  std::optional<std::string> recv_line();

  /// Half-close: no more requests, but keep reading responses — the
  /// server-side drain path for well-behaved clients.
  void shutdown_write();

  void close() { fd_.reset(); }

 private:
  Fd fd_;
  std::string inbuf_;
  bool eof_ = false;
  std::string error_;
};

}  // namespace spiv::net
