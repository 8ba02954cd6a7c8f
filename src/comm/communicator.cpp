#include "comm/communicator.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace tripoll::comm {

void communicator::drain(std::size_t max_buffers) {
  if (in_drain_) return;
  in_drain_ = true;
  // Resolve the dispatch table once for the whole drain: dispatch is then an
  // indexed load off `thunks`.  `published` can lag a concurrent
  // registration on another rank, so an id past it re-checks via the slow
  // path (which reloads the count) before declaring the buffer corrupt.
  auto& table = detail::thunk_table::instance();
  const detail::thunk_fn* thunks = table.base();
  std::uint32_t published = table.published();
  mailbox::envelope env;
  std::size_t processed = 0;
  auto& counters = transport_->counters(rank_);
  while (processed < max_buffers && transport_->try_receive(rank_, env)) {
    serial::buffer_reader rd(env.payload.data(), env.payload.size());
    serial::reader ar(rd);
    std::uint64_t handlers = 0;
    current_payload_ = &env.payload;  // handlers may share_current_payload()
    while (!rd.exhausted()) {
      const auto handler = static_cast<std::uint32_t>(ar.read_varint());
      if (handler >= published) [[unlikely]] {
        (void)table.lookup(handler);  // throws if genuinely unknown
        published = table.published();
      }
      thunks[handler](*this, rd);
      ++handlers;
    }
    current_payload_ = nullptr;
    counters.handlers_run.fetch_add(handlers, std::memory_order_relaxed);
    // Only acknowledge after every handler inside the buffer has run; any
    // sends they performed sit in our send buffers and will be flushed
    // before this rank can declare itself idle again.
    transport_->acknowledge_processed(rank_);
    // A handler that stole the payload owns its block now (the reader's raw
    // pointers stayed valid -- the block never moved); drop our reference.
    current_payload_shared_.reset();
    ++processed;
  }
  in_drain_ = false;
}

std::shared_ptr<const serial::byte_buffer> communicator::share_current_payload() {
  if (current_payload_shared_) return current_payload_shared_;
  if (current_payload_ == nullptr) {
    throw std::logic_error(
        "share_current_payload: no payload is being drained (only handlers "
        "may steal the in-flight payload)");
  }
  current_payload_shared_ =
      std::make_shared<const serial::byte_buffer>(std::move(*current_payload_));
  return current_payload_shared_;
}

void communicator::backoff(unsigned& spins) {
  ++spins;
  if (spins < 64) {
    // busy spin
  } else if (spins < 256) {
    std::this_thread::yield();
  } else {
    transport_->wait_for_inbox(rank_, std::chrono::microseconds(50));
  }
}

void communicator::barrier() {
  transport_->throw_if_aborted();
  flush_all();
  drain(SIZE_MAX);
  flush_all();  // handlers executed in the drain may have buffered new sends

  const std::uint64_t my_generation = ++barrier_generation_;
  transport_->announce_idle(rank_, my_generation);

  unsigned spins = 0;
  auto wait_start = std::chrono::steady_clock::now();
  const double timeout = cfg().barrier_timeout_seconds;
  while (!transport_->poll_barrier(rank_, my_generation)) {
    if (transport_->aborted()) break;  // fall through to rendezvous-abort path
    if (!transport_->inbox_empty(rank_)) {
      transport_->retract_idle(rank_);
      drain(SIZE_MAX);
      flush_all();
      transport_->announce_idle(rank_, my_generation);
      spins = 0;
      wait_start = std::chrono::steady_clock::now();  // arrivals are progress
      continue;
    }
    backoff(spins);
    if (timeout > 0.0 && spins % 1024 == 0) {
      const double waited = std::chrono::duration<double>(
          std::chrono::steady_clock::now() - wait_start).count();
      if (waited > timeout) {
        transport_->abort_run(std::make_exception_ptr(std::runtime_error(
            "barrier watchdog: no global progress for " +
            std::to_string(waited) +
            "s -- likely a mismatched collective (a rank skipped a "
            "barrier/all_reduce/gather_all that others entered)")));
      }
    }
  }

  transport_->throw_if_aborted();
  transport_->exit_rendezvous(rank_);
}

}  // namespace tripoll::comm
