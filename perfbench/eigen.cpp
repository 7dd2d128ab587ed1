#include <algorithm>

#include "core/access.hpp"
#include "eigenbench/eigenbench.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using votm::stm::Word;

// Transactions per thread per object in one round: about 0.5 s at N = 4.
constexpr std::uint64_t kLoops = 4000;
constexpr std::uint64_t kSmokeLoops = 20;

inline void consume(Word value) { asm volatile("" ::"r"(value)); }

inline void run_nops(unsigned n) {
  for (unsigned i = 0; i < n; ++i) asm volatile("nop");
}

enum Action : std::uint8_t { kHotRead, kHotWrite, kMildRead, kMildWrite };

std::vector<votm::eigen::ObjectParams> table2_objects(bool smoke) {
  std::vector<votm::eigen::ObjectParams> objects = {
      votm::eigen::paper_view1(), votm::eigen::paper_view2()};
  for (auto& p : objects) p.loops = smoke ? kSmokeLoops : kLoops;
  return objects;
}

}  // namespace

struct EigenRound::Object {
  votm::eigen::ObjectParams params;
  Word* hot = nullptr;
  Word* mild = nullptr;
  std::vector<Word*> cold;  // one per thread
  std::size_t mild_slice = 0;
};

EigenRound::EigenRound(const RoundConfig& config)
    : config_(config), params_(table2_objects(config.smoke)) {
  const unsigned n = config_.threads;
  // Views and arrays exactly as EigenWorld builds them for kMultiView.
  for (const auto& p : params_) {
    votm::core::ViewConfig vc;
    vc.algo = votm::stm::Algo::kOrecEagerRedo;
    vc.max_threads = n;
    vc.rac = votm::core::RacMode::kFixed;
    vc.fixed_quota = n;
    vc.backoff = votm::BackoffPolicy::kNone;
    vc.trace_adaptation = config_.traced;
    const std::size_t words = p.a1 + p.a2 + p.a3 * n;
    vc.initial_bytes = words * sizeof(Word) + (words / 4 + 4096) * sizeof(Word);
    views_.push_back(std::make_unique<votm::core::View>(vc));

    votm::core::View& v = *views_.back();
    auto ob = std::make_unique<Object>();
    ob->params = p;
    ob->hot = static_cast<Word*>(v.alloc(p.a1 * sizeof(Word)));
    ob->mild = static_cast<Word*>(v.alloc(p.a2 * sizeof(Word)));
    for (unsigned t = 0; t < n; ++t) {
      ob->cold.push_back(static_cast<Word*>(v.alloc(p.a3 * sizeof(Word))));
    }
    ob->mild_slice = std::max<std::size_t>(1, p.a2 / n);
    objects_.push_back(std::move(ob));
  }

  // Per-thread schedules, drawn exactly as EigenWorld::worker draws them:
  // loops transactions per object, interleaved uniformly at random, each
  // with its own access-pattern seed.
  schedules_.resize(n);
  for (unsigned tid = 0; tid < n; ++tid) {
    votm::SplitMix64 seeder(config_.seed * 0x9e3779b9ULL + tid);
    votm::Xoshiro256 rng(seeder.next());
    Schedule& s = schedules_[tid];
    for (std::size_t o = 0; o < params_.size(); ++o) {
      s.object.insert(s.object.end(), params_[o].loops,
                      static_cast<std::uint8_t>(o));
    }
    for (std::size_t i = s.object.size(); i > 1; --i) {
      std::swap(s.object[i - 1], s.object[rng.below(i)]);
    }
    s.seed.resize(s.object.size());
    for (auto& x : s.seed) x = seeder.next();
  }
  completed_.assign(n, 0);
}

EigenRound::~EigenRound() = default;

// One Fig. 3 transaction body, as EigenWorld::run_transaction_body without
// the yield knob: the access pattern is re-drawn on every retry.
void EigenRound::body(const Object& ob, unsigned tid, std::uint64_t iter_seed) {
  const std::uint64_t attempt = votm::core::thread_ctx().tx.consecutive_aborts;
  votm::Xoshiro256 rng(iter_seed + attempt * 0x9e3779b97f4a7c15ULL);
  const votm::eigen::ObjectParams& p = ob.params;

  std::uint8_t actions[512];
  const unsigned total = p.r1 + p.w1 + p.r2 + p.w2;
  unsigned idx = 0;
  for (unsigned i = 0; i < p.r1; ++i) actions[idx++] = kHotRead;
  for (unsigned i = 0; i < p.w1; ++i) actions[idx++] = kHotWrite;
  for (unsigned i = 0; i < p.r2; ++i) actions[idx++] = kMildRead;
  for (unsigned i = 0; i < p.w2; ++i) actions[idx++] = kMildWrite;
  for (unsigned i = total; i > 1; --i) {
    std::swap(actions[i - 1], actions[rng.below(i)]);
  }

  Word* cold = ob.cold[tid];
  const std::size_t mild_base = tid * ob.mild_slice;
  Word acc = 0;
  for (unsigned a = 0; a < total; ++a) {
    switch (actions[a]) {
      case kHotRead:
        acc += votm::core::vread(&ob.hot[rng.below(p.a1)]);
        break;
      case kHotWrite:
        votm::core::vwrite(&ob.hot[rng.below(p.a1)], rng.next());
        break;
      case kMildRead:
        acc += votm::core::vread(&ob.mild[mild_base + rng.below(ob.mild_slice)]);
        break;
      case kMildWrite:
        votm::core::vwrite(&ob.mild[mild_base + rng.below(ob.mild_slice)],
                           rng.next());
        break;
    }
    if (a + 1 < total) {
      for (unsigned i = 0; i < p.r3i; ++i) {
        acc += votm::core::vread(&cold[rng.below(p.a3)]);
      }
      for (unsigned i = 0; i < p.w3i; ++i) {
        votm::core::vwrite(&cold[rng.below(p.a3)], acc + i);
      }
      run_nops(p.nopi);
    }
  }
  consume(acc);
}

template <class Log>
void EigenRound::work(unsigned tid, Log& log) {
  const Schedule& s = schedules_[tid];
  std::uint64_t done = 0;
  for (std::size_t iter = 0; iter < s.object.size(); ++iter) {
    const std::uint8_t o = s.object[iter];
    const Object& ob = *objects_[o];
    atomic_block(*views_[o], log, o, 0, [&] { body(ob, tid, s.seed[iter]); });
    ++done;
  }
  completed_[tid] = done;
}

template void EigenRound::work<SpanLog>(unsigned, SpanLog&);
template void EigenRound::work<NoSpans>(unsigned, NoSpans&);

std::uint64_t EigenRound::ops() const {
  std::uint64_t per_thread = 0;
  for (const auto& p : params_) per_thread += p.loops;
  return per_thread * config_.threads;
}

// Gate: every loop iteration completed and committed exactly once
// (commits == N x loops x 2), with no watchdog cut.
std::uint64_t EigenRound::failed() {
  std::uint64_t done = 0;
  for (std::uint64_t c : completed_) done += c;
  if (total_commits(views()) != ops()) return ops();
  return ops() - std::min(done, ops());
}

std::vector<votm::core::View*> EigenRound::views() {
  std::vector<votm::core::View*> out;
  for (auto& v : views_) out.push_back(v.get());
  return out;
}

TraceSpec EigenRound::trace_spec() const {
  TraceSpec spec;
  spec.views = views_.size();
  // Transactional accesses of one committed body: the shared (hot + mild)
  // ones plus the cold ones made between two shared accesses.
  for (const auto& p : params_) {
    const unsigned shared = p.r1 + p.w1 + p.r2 + p.w2;
    spec.accesses_per_commit.push_back(shared +
                                       (shared - 1.0) * (p.r3i + p.w3i));
  }
  return spec;
}

std::uint64_t EigenRound::world_commits(const RoundConfig& config) {
  votm::eigen::WorldConfig wc;
  wc.layout = votm::eigen::Layout::kMultiView;
  wc.objects = table2_objects(config.smoke);
  wc.n_threads = config.threads;
  wc.algo = votm::stm::Algo::kOrecEagerRedo;
  wc.rac = votm::core::RacMode::kFixed;
  wc.fixed_quotas = {config.threads, config.threads};
  wc.seed = config.seed;
  wc.backoff = votm::BackoffPolicy::kNone;
  votm::eigen::EigenWorld world(wc);
  return world.run().total.commits;
}

}  // namespace perfbench
