#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdio>

#include "common/check.hpp"
#include "serve/netio.hpp"

namespace mempool::serve {

namespace {

/// "id" is echoed verbatim; absent means null in responses so every line is
/// still correlatable by shape.
Json get_id(const Json& line) {
  if (line.is_object() && line.contains("id")) return line.at("id");
  return Json();
}

Json error_response(const Json& id, const std::string& message) {
  Json j = Json::object();
  j.set("id", id);
  j.set("ok", false);
  j.set("kind", "invalid");
  j.set("error", message);
  return j;
}

Json response_json(const Json& id, const ServiceResponse& resp) {
  Json j = Json::object();
  j.set("id", id);
  j.set("ok", resp.ok);
  if (!resp.ok) {
    j.set("error", resp.error);
    // Machine-readable failure class plus the overload backoff hint, so
    // clients can decide retryability without parsing error text.
    j.set("kind", resp.kind.empty() ? "invalid" : resp.kind);
    if (resp.retry_after_ms > 0) j.set("retry_after_ms", resp.retry_after_ms);
    // Watchdog aborts attach their mempool.liveness.v1 stall attribution so
    // the client learns *where* the point wedged, not just that it did.
    if (!resp.liveness.is_null()) j.set("liveness", resp.liveness);
    return j;
  }
  j.set("key", resp.key);
  j.set("cached", resp.cache_hit);
  j.set("coalesced", resp.coalesced);
  j.set("service_ms", resp.service_ms);
  j.set("result", resp.result.to_json());
  return j;
}

}  // namespace

SimServer::SimServer(ServerConfig cfg)
    : cfg_(std::move(cfg)), service_(cfg_.service) {
  MEMPOOL_CHECK_MSG(!cfg_.socket_path.empty(),
                    "SimServer requires a socket path");
}

SimServer::~SimServer() {
  stop();
  wait();
}

void SimServer::start() {
  MEMPOOL_CHECK_MSG(!started_, "SimServer::start() called twice");
  listen_fd_ = listen_unix(cfg_.socket_path);
  started_ = true;
  if (cfg_.log) {
    std::fprintf(stderr, "[sim_server] listening on %s (%u worker threads)\n",
                 cfg_.socket_path.c_str(), service_.threads());
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SimServer::stop() {
  if (stopping_.exchange(true)) return;
  std::lock_guard<std::mutex> lock(stop_mu_);
  stop_cv_.notify_all();
}

void SimServer::wait() {
  if (!started_ || torn_down_) return;
  {
    std::unique_lock<std::mutex> lock(stop_mu_);
    stop_cv_.wait(lock, [this] { return stopping_.load(); });
  }
  torn_down_ = true;

  // Teardown order matters: stop accepting, wake every blocked reader, join
  // them (no new submissions after that), drain the pool so every accepted
  // request is still answered, and only then close the fds.
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  std::vector<Slot> slots;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    slots.swap(conns_);
  }
  for (Slot& s : slots) {
    std::lock_guard<std::mutex> lock(s.conn->write_mu);
    if (s.conn->open) ::shutdown(s.conn->fd, SHUT_RD);
  }
  for (Slot& s : slots) s.reader.join();
  service_.drain();
  for (Slot& s : slots) {
    std::lock_guard<std::mutex> lock(s.conn->write_mu);
    if (s.conn->open) {
      ::close(s.conn->fd);
      s.conn->open = false;
    }
  }
  ::unlink(cfg_.socket_path.c_str());
  if (cfg_.log) {
    std::fprintf(stderr, "[sim_server] shut down after %s\n",
                 service_.metrics_json().at("requests").dump(0).c_str());
  }
}

void SimServer::accept_loop() {
  while (!stopping_.load()) {
    // Poll with a timeout instead of blocking in accept(): closing a
    // listening fd is not guaranteed to wake a blocked accept, a 100 ms
    // stop-flag check is. EINTR (any signal delivered to this thread) and
    // ECONNABORTED (peer gone between poll and accept) just re-enter the
    // loop — a signal must never kill the accept path of a daemon.
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;  // EINTR, ECONNABORTED, EMFILE: keep accepting
    if (cfg_.write_timeout_ms > 0) {
      timeval tv{cfg_.write_timeout_ms / 1000,
                 static_cast<suseconds_t>(cfg_.write_timeout_ms % 1000) *
                     1000};
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }

    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conns_mu_);
    // Reap connections whose reader already finished and fd is closed —
    // keeps a long-lived daemon from accumulating joined-out slots.
    for (auto it = conns_.begin(); it != conns_.end();) {
      bool dead;
      {
        std::lock_guard<std::mutex> conn_lock(it->conn->write_mu);
        dead = !it->conn->open && it->conn->done_reading;
      }
      if (dead) {
        it->reader.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    conns_.push_back(
        Slot{conn, std::thread([this, conn] { reader_loop(conn); })});
  }
}

void SimServer::reader_loop(const std::shared_ptr<Conn>& conn) {
  LineReader reader(conn->fd);
  std::string line;
  while (!stopping_.load() && reader.read_line(&line)) {
    if (line.empty()) continue;
    handle_line(conn, line);
  }
  if (reader.overflowed()) {
    // No framing to resynchronize on: answer once, then close this
    // connection (the daemon keeps serving every other one).
    respond(conn, error_response(
                      Json(), "request line exceeds " +
                                  std::to_string(LineReader::kMaxLine) +
                                  " bytes; closing the connection"));
  }
  std::lock_guard<std::mutex> lock(conn->write_mu);
  conn->done_reading = true;
  try_close(*conn);
}

void SimServer::handle_line(const std::shared_ptr<Conn>& conn,
                            const std::string& line) {
  Json msg;
  try {
    msg = Json::parse(line);
  } catch (const std::exception& e) {
    respond(conn, error_response(Json(), std::string("bad JSON: ") + e.what()));
    return;
  }
  const Json id = get_id(msg);
  if (!msg.is_object()) {
    respond(conn, error_response(id, "request line must be a JSON object"));
    return;
  }

  std::string op;
  if (msg.contains("op")) {
    // as_string() throws on type mismatch; a {"op": 5} line must answer
    // ok=false like every other malformed line, never unwind the reader.
    if (!msg.at("op").is_string()) {
      respond(conn, error_response(id, "'op' must be a string"));
      return;
    }
    op = msg.at("op").as_string();
  }
  if (op.empty() && msg.contains("request")) op = "run";

  if (op == "ping") {
    Json j = Json::object();
    j.set("id", id);
    j.set("ok", true);
    j.set("pong", true);
    respond(conn, j);
    return;
  }
  if (op == "metrics") {
    Json j = Json::object();
    j.set("id", id);
    j.set("ok", true);
    j.set("metrics", service_.metrics_json());
    respond(conn, j);
    return;
  }
  if (op == "shutdown") {
    Json j = Json::object();
    j.set("id", id);
    j.set("ok", true);
    j.set("shutting_down", true);
    respond(conn, j);
    stop();  // teardown happens on the wait() thread, never here
    return;
  }
  if (op != "run") {
    respond(conn, error_response(
                      id, "unknown op '" + op +
                              "'; expected run, metrics, ping, or shutdown"));
    return;
  }

  SimRequest req;
  try {
    MEMPOOL_CHECK_MSG(msg.contains("request"),
                      "run op requires a 'request' object");
    req = SimRequest::from_json(msg.at("request"));
  } catch (const std::exception& e) {
    // Schema/plugin errors answer this line; the connection keeps serving.
    respond(conn, error_response(id, e.what()));
    return;
  }

  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (!conn->open) return;
    ++conn->outstanding;
  }
  service_.submit(req, [this, conn, id](const ServiceResponse& resp) {
    if (cfg_.log) {
      std::fprintf(stderr, "[sim_server] %s key=%s %s%.3f ms\n",
                   resp.ok ? "ok" : "error", resp.key.c_str(),
                   resp.cache_hit    ? "hit "
                   : resp.coalesced  ? "coalesced "
                                     : "computed ",
                   resp.service_ms);
    }
    respond(conn, response_json(id, resp));
    std::lock_guard<std::mutex> lock(conn->write_mu);
    --conn->outstanding;
    try_close(*conn);
  });
}

void SimServer::respond(const std::shared_ptr<Conn>& conn, const Json& j) {
  const std::string line = j.dump(0) + "\n";
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!conn->open) return;  // peer vanished while we were simulating
  if (!write_all(conn->fd, line)) {
    // Disconnected peer, or one that stopped reading past the send timeout:
    // shut the socket down so the reader exits and later writes fail fast.
    // The fd itself is closed by try_close once reader and callbacks drain.
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void SimServer::try_close(Conn& conn) {
  // Callers hold conn.write_mu. Close only when the reader has exited AND no
  // pool callback still needs the fd; whichever of the two finishes last
  // performs the close.
  if (conn.open && conn.done_reading && conn.outstanding == 0) {
    ::close(conn.fd);
    conn.open = false;
  }
}

}  // namespace mempool::serve
