// A client connection to FSimService::ServeLoop over a pair of OS pipes, so
// the benchmark pays the wire format (request parsing, response formatting,
// per-request flush) the way a `fsim_cli --serve` client does.
#ifndef PERFBENCH_SERVE_CLIENT_H_
#define PERFBENCH_SERVE_CLIENT_H_

#include <string>
#include <thread>

#include "serve/service.h"

namespace perfbench {

class ServeConnection {
 public:
  /// Starts ServeLoop on its own thread; `service` must outlive this.
  explicit ServeConnection(fsim::FSimService* service);
  /// Closes the request pipe (EOF ends ServeLoop) and joins the loop
  /// thread.
  ~ServeConnection();
  ServeConnection(const ServeConnection&) = delete;
  ServeConnection& operator=(const ServeConnection&) = delete;

  /// Writes one request line and returns the one-line answer (without the
  /// newline); an empty string when the connection failed.
  std::string Call(const std::string& request);

 private:
  bool ReadLine(std::string* line);

  int request_fd_[2] = {-1, -1};
  int response_fd_[2] = {-1, -1};
  std::string pending_;  // response bytes read past the last full line
  std::thread loop_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_CLIENT_H_
