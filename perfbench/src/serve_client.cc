#include "serve_client.h"

#include <cerrno>
#include <istream>
#include <ostream>
#include <streambuf>
#include <unistd.h>

#include "common/logging.h"

namespace perfbench {

namespace {

// Minimal std::streambuf over a pipe end: reads and writes go straight to
// read(2)/write(2); sync() writes out what the stream buffered.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }
  ~FdStreamBuf() override { sync(); }

 protected:
  int_type underflow() override {
    ssize_t n = 0;
    do {
      n = ::read(fd_, in_, sizeof(in_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }

  int_type overflow(int_type ch) override {
    if (sync() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override {
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t n = ::write(fd_, p, static_cast<size_t>(pptr() - p));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return -1;
      p += n;
    }
    setp(out_, out_ + sizeof(out_));
    return 0;
  }

 private:
  int fd_;
  char in_[4096];
  char out_[4096];
};

}  // namespace

ServeConnection::ServeConnection(fsim::FSimService* service) {
  FSIM_CHECK(::pipe(request_fd_) == 0 && ::pipe(response_fd_) == 0);
  loop_ = std::thread([this, service] {
    FdStreamBuf in_buf(request_fd_[0]);
    FdStreamBuf out_buf(response_fd_[1]);
    std::istream in(&in_buf);
    std::ostream out(&out_buf);
    // A broken stream ends the loop; the client sees it as an empty answer.
    (void)service->ServeLoop(in, out);
  });
}

ServeConnection::~ServeConnection() {
  ::close(request_fd_[1]);
  loop_.join();
  ::close(request_fd_[0]);
  ::close(response_fd_[1]);
  ::close(response_fd_[0]);
}

std::string ServeConnection::Call(const std::string& request) {
  const std::string line = request + "\n";
  const char* p = line.data();
  size_t left = line.size();
  while (left > 0) {
    const ssize_t n = ::write(request_fd_[1], p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return {};
    p += n;
    left -= static_cast<size_t>(n);
  }
  std::string answer;
  if (!ReadLine(&answer)) return {};
  return answer;
}

bool ServeConnection::ReadLine(std::string* line) {
  for (;;) {
    const size_t eol = pending_.find('\n');
    if (eol != std::string::npos) {
      line->assign(pending_, 0, eol);
      pending_.erase(0, eol + 1);
      return true;
    }
    char buf[4096];
    const ssize_t n = ::read(response_fd_[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    pending_.append(buf, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
