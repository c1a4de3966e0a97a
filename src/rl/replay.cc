#include "rl/replay.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <sys/mman.h>

#include "common/error.hh"

namespace twig::rl {

SumTree::SumTree(std::size_t capacity) : capacity_(capacity)
{
    common::fatalIf(capacity == 0, "SumTree: zero capacity");
    leafBase_ = 1;
    while (leafBase_ < capacity)
        leafBase_ <<= 1;
    const std::size_t bytes = 2 * leafBase_ * sizeof(double);
    void *pages = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    common::fatalIf(pages == MAP_FAILED, "SumTree: out of memory");
    nodes_ = std::unique_ptr<double[], Unmap>(static_cast<double *>(pages),
                                              Unmap{bytes});
}

void
SumTree::Unmap::operator()(double *p) const
{
    ::munmap(p, bytes);
}

void
SumTree::set(std::size_t idx, double priority)
{
    common::fatalIf(idx >= capacity_, "SumTree::set: index out of range");
    common::fatalIf(priority < 0.0, "SumTree::set: negative priority");
    std::size_t node = leafBase_ + idx;
    const double delta = priority - nodes_[node];
    while (node >= 1) {
        nodes_[node] += delta;
        node >>= 1;
    }
}

double
SumTree::get(std::size_t idx) const
{
    common::fatalIf(idx >= capacity_, "SumTree::get: index out of range");
    return nodes_[leafBase_ + idx];
}

double
SumTree::total() const
{
    return nodes_[1];
}

std::size_t
SumTree::find(double mass) const
{
    std::size_t node = 1;
    while (node < leafBase_) {
        const std::size_t left = 2 * node;
        if (mass < nodes_[left]) {
            node = left;
        } else {
            mass -= nodes_[left];
            node = left + 1;
        }
    }
    std::size_t leaf = node - leafBase_;
    // Numerical slack can land on a zero-priority tail leaf; clamp back.
    if (leaf >= capacity_)
        leaf = capacity_ - 1;
    return leaf;
}

PrioritizedReplay::PrioritizedReplay(const ReplayConfig &cfg)
    : cfg_(cfg), tree_(cfg.capacity)
{
    common::fatalIf(cfg.alpha < 0.0, "replay: alpha must be >= 0");
    common::fatalIf(cfg.capacity > (std::size_t{1} << 30),
                    "replay: capacity above 2^30 transitions");
}

std::uint32_t
PrioritizedReplay::storeRow(const std::vector<float> &x)
{
    const std::uint32_t row = nextRow_;
    nextRow_ = static_cast<std::uint32_t>((row + 1) % ringRows());
    if (rows_.size() < (row + 1) * stateDim_)
        rows_.resize((row + 1) * stateDim_);
    std::copy(x.begin(), x.end(), rows_.begin() + row * stateDim_);
    return row;
}

void
PrioritizedReplay::add(const Transition &t)
{
    if (size_ == 0) {
        // The first transition fixes the shape. Nothing is reserved up
        // front: the buffers grow as they fill, so a run that stores a
        // few thousand transitions holds memory for about that many --
        // a large reservation can be served from already-resident heap
        // and cost its full size at once.
        stateDim_ = t.state.size();
        agents_ = t.actions.size();
        branches_ = t.actions.empty() ? 0 : t.actions[0].size();
    }
    bool shaped = t.state.size() == stateDim_ &&
        t.nextState.size() == stateDim_ && t.actions.size() == agents_ &&
        t.rewards.size() == agents_;
    for (const auto &a : t.actions) {
        shaped = shaped && a.size() == branches_;
        for (const std::size_t i : a)
            common::fatalIf(i > UINT16_MAX, "replay: action index too large");
    }
    common::fatalIf(!shaped,
                    "replay: transition shape differs from the first one");

    if (next_ == size_) { // still filling: grow by one slot
        stateRow_.push_back(0);
        actions_.resize(actions_.size() + agents_ * branches_);
        rewards_.resize(rewards_.size() + agents_);
        done_.push_back(0);
    }
    // The previous transition's next state is the newest row. Either
    // way the next state's row follows the state's.
    const std::size_t last = (nextRow_ + ringRows() - 1) % ringRows();
    const bool reuse = size_ != 0 &&
        std::memcmp(t.state.data(), rows_.data() + last * stateDim_,
                    stateDim_ * sizeof(float)) == 0;
    stateRow_[next_] = reuse ? static_cast<std::uint32_t>(last)
                             : storeRow(t.state);
    storeRow(t.nextState);
    for (std::size_t k = 0; k < agents_; ++k)
        std::copy(t.actions[k].begin(), t.actions[k].end(),
                  actions_.begin() + (next_ * agents_ + k) * branches_);
    std::copy(t.rewards.begin(), t.rewards.end(),
              rewards_.begin() + next_ * agents_);
    done_[next_] = t.done ? 1 : 0;

    tree_.set(next_, std::pow(maxPriority_, cfg_.alpha));
    next_ = (next_ + 1) % cfg_.capacity;
    size_ = std::min(size_ + 1, cfg_.capacity);
}

ReplaySample
PrioritizedReplay::sample(std::size_t n, double beta,
                          common::Rng &rng) const
{
    ReplaySample out;
    sampleInto(n, beta, rng, out);
    return out;
}

void
PrioritizedReplay::sampleInto(std::size_t n, double beta,
                              common::Rng &rng, ReplaySample &out) const
{
    common::fatalIf(size_ == 0, "replay: cannot sample from empty buffer");
    common::fatalIf(n == 0, "replay: sample size must be >= 1");

    out.indices.clear();
    out.weights.clear();
    out.indices.reserve(n);
    out.weights.reserve(n);

    const double total = tree_.total();
    common::panicIf(total <= 0.0, "replay: zero total priority");

    // Stratified sampling across n equal slices of the priority mass.
    const double slice = total / static_cast<double>(n);
    double max_w = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double mass =
            slice * (static_cast<double>(i) + rng.uniform());
        std::size_t idx = tree_.find(std::min(mass, total * (1 - 1e-12)));
        if (idx >= size_)
            idx = size_ - 1; // unfilled leaves carry zero mass; defensive
        out.indices.push_back(idx);
        const double p = tree_.get(idx) / total;
        const double w =
            std::pow(static_cast<double>(size_) * std::max(p, 1e-12),
                     -beta);
        out.weights.push_back(w);
        max_w = std::max(max_w, w);
    }
    if (max_w > 0.0) {
        for (auto &w : out.weights)
            w /= max_w;
    }
}

void
PrioritizedReplay::updatePriorities(const std::vector<std::size_t> &indices,
                                    const std::vector<double> &td_errors)
{
    common::fatalIf(indices.size() != td_errors.size(),
                    "replay: priority update size mismatch");
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const double p = std::abs(td_errors[i]) + cfg_.epsilonPriority;
        maxPriority_ = std::max(maxPriority_, p);
        tree_.set(indices[i], std::pow(p, cfg_.alpha));
    }
}

} // namespace twig::rl
