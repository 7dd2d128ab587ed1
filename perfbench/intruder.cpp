#include <algorithm>
#include <cstring>

#include "intruder/intruder.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using votm::stm::Word;

// Flows in one round (STAMP -n): about 0.5 s at N = 4. STAMP's defaults
// for the rest: 10% attack flows, flows up to 128 bytes.
constexpr std::uint64_t kFlows = 32768;
constexpr std::uint64_t kSmokeFlows = 64;

votm::intruder::GeneratorConfig generator(const RoundConfig& config) {
  votm::intruder::GeneratorConfig gen;
  gen.num_flows = config.smoke ? kSmokeFlows : kFlows;
  gen.seed = config.seed;
  return gen;
}

votm::core::ViewConfig view_config(const RoundConfig& config, std::size_t words) {
  votm::core::ViewConfig vc;
  vc.algo = votm::stm::Algo::kNOrec;
  vc.max_threads = config.threads;
  vc.rac = votm::core::RacMode::kAdaptive;
  vc.backoff = votm::BackoffPolicy::kNone;
  vc.trace_adaptation = config.traced;
  vc.initial_bytes = words * sizeof(Word) * 2 + (1u << 16);
  return vc;
}

}  // namespace

IntruderRound::IntruderRound(const RoundConfig& config)
    : config_(config),
      gen_(generator(config)),
      stream_(votm::intruder::generate_stream(gen_, detector_)) {
  // Views sized as IntruderWorld sizes them: queue slots + counters; the
  // dictionary's buckets plus one node per flow.
  const std::size_t n_packets = stream_.shuffled.size();
  std::size_t dict_words = 2 * gen_.num_flows;
  for (const auto& packet : stream_.packets) {
    if (packet->fragment_id == 0) dict_words += 4 + packet->num_fragments;
  }
  views_.push_back(std::make_unique<votm::core::View>(
      view_config(config_, 2 * n_packets + 16)));
  views_.push_back(
      std::make_unique<votm::core::View>(view_config(config_, dict_words)));
  queue_ = std::make_unique<votm::intruder::TxQueue>(*views_[0], n_packets + 1);
  dictionary_ = std::make_unique<votm::intruder::TxDictionary>(
      *views_[1], 2 * gen_.num_flows);

  std::vector<Word> words;
  words.reserve(n_packets);
  for (votm::intruder::Packet* p : stream_.shuffled) {
    words.push_back(reinterpret_cast<Word>(p));
  }
  queue_->prefill(words);
  tallies_.resize(config_.threads);
}

IntruderRound::~IntruderRound() = default;

// One worker: pop a packet (queue view), insert it (dictionary view); a
// completed flow is assembled and scanned outside any transaction.
template <class Log>
void IntruderRound::work(unsigned tid, Log& log) {
  using votm::intruder::Packet;
  std::vector<const Packet*> fragments(gen_.max_length + 64);
  std::vector<std::uint8_t> assembled;
  Tally tally;
  for (;;) {
    const Packet* packet = nullptr;
    atomic_block(*views_[0], log, 0, 0, [&] {
      packet = reinterpret_cast<const Packet*>(
          traced(log, SpanName::kQueuePop, [&] { return queue_->pop(); }));
    });
    if (packet == nullptr) break;
    ++tally.packets;

    unsigned n_fragments = 0;
    atomic_block(*views_[1], log, 1, 0, [&] {
      n_fragments = traced(log, SpanName::kDictInsert, [&] {
        return dictionary_->insert(packet, fragments.data(),
                                   static_cast<unsigned>(fragments.size()));
      });
    });
    if (n_fragments == 0) continue;

    log.open(SpanName::kScan);
    std::size_t total_bytes = 0;
    for (unsigned i = 0; i < n_fragments; ++i) {
      total_bytes += fragments[i]->payload.size();
    }
    assembled.resize(total_bytes);
    for (unsigned i = 0; i < n_fragments; ++i) {
      const Packet& f = *fragments[i];
      std::memcpy(assembled.data() + f.offset, f.payload.data(),
                  f.payload.size());
    }
    ++tally.flows;
    if (detector_.scan(assembled.data(), assembled.size())) ++tally.attacks;
    log.close();
  }
  tallies_[tid] = tally;
}

template void IntruderRound::work<SpanLog>(unsigned, SpanLog&);
template void IntruderRound::work<NoSpans>(unsigned, NoSpans&);

std::uint64_t IntruderRound::ops() const { return stream_.shuffled.size(); }

// Gate: every packet processed, every flow reassembled, exactly the
// generated attacks detected, and no flow left in the dictionary.
std::uint64_t IntruderRound::failed() {
  Tally sum;
  for (const Tally& t : tallies_) {
    sum.packets += t.packets;
    sum.flows += t.flows;
    sum.attacks += t.attacks;
  }
  if (sum.flows != gen_.num_flows || sum.attacks != stream_.attack_flows ||
      dictionary_->resident_flows() != 0) {
    return ops();
  }
  return ops() - std::min(sum.packets, ops());
}

std::vector<votm::core::View*> IntruderRound::views() {
  return {views_[0].get(), views_[1].get()};
}

TraceSpec IntruderRound::trace_spec() const {
  TraceSpec spec;
  spec.views = views_.size();
  return spec;
}

std::uint64_t IntruderRound::world_commits(const RoundConfig& config) {
  votm::intruder::IntruderConfig ic;
  ic.gen = generator(config);
  ic.layout = votm::intruder::Layout::kMultiView;
  ic.n_threads = config.threads;
  ic.algo = votm::stm::Algo::kNOrec;
  ic.rac = votm::core::RacMode::kAdaptive;
  ic.backoff = votm::BackoffPolicy::kNone;
  votm::intruder::IntruderWorld world(ic);
  return world.run().total.commits;
}

}  // namespace perfbench
