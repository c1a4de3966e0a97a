/**
 * @file
 * Experience replay: transitions, a sum-tree, and prioritised sampling
 * (Schaul et al. 2015), as used by Twig (paper §IV: buffer 10^6,
 * alpha = 0.6, beta annealed 0.4 -> 1).
 */

#ifndef TWIG_RL_REPLAY_HH
#define TWIG_RL_REPLAY_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"

namespace twig::rl {

/** One multi-agent environment transition. */
struct Transition
{
    /** Joint normalised state at time t (all agents concatenated). */
    std::vector<float> state;
    /** actions[k][d]: action index of agent k on branch d. */
    std::vector<std::vector<std::size_t>> actions;
    /** Per-agent reward received after the interval. */
    std::vector<double> rewards;
    /** Joint state at time t+1. */
    std::vector<float> nextState;
    /** Terminal flag (always false in the continuing task; kept for
     * generality and tested). */
    bool done = false;
};

/**
 * Binary-indexed sum tree over leaf priorities, supporting O(log n)
 * updates and prefix-sum sampling.
 */
class SumTree
{
  public:
    explicit SumTree(std::size_t capacity);

    std::size_t capacity() const { return capacity_; }

    /** Set leaf @p idx priority. */
    void set(std::size_t idx, double priority);

    /** Priority of leaf @p idx. */
    double get(std::size_t idx) const;

    /** Total priority mass. */
    double total() const;

    /**
     * Find the leaf whose cumulative-priority interval contains
     * @p mass (0 <= mass < total()).
     */
    std::size_t find(double mass) const;

  private:
    struct Unmap
    {
        std::size_t bytes;
        void operator()(double *p) const;
    };

    std::size_t capacity_;
    std::size_t leafBase_;
    // Anonymous zero pages straight from the kernel, so only the paths
    // of filled leaves ever become resident. calloc gives that only
    // while malloc still serves blocks this size by mmap: once its
    // dynamic threshold has risen (after any large block is freed), a
    // calloc'd tree comes from recycled heap and is zeroed, so all of
    // it is resident.
    std::unique_ptr<double[], Unmap> nodes_;
};

/** Configuration of the prioritised replay buffer. */
struct ReplayConfig
{
    std::size_t capacity = 1000000;
    double alpha = 0.6;          ///< priority exponent (paper: 0.6)
    double epsilonPriority = 1e-3; ///< keeps every priority non-zero
};

/** Result of sampling a minibatch. */
struct ReplaySample
{
    std::vector<std::size_t> indices;
    std::vector<double> weights; ///< normalised importance weights
};

/**
 * Proportional prioritised experience replay over a circular buffer.
 *
 * Transitions are stored flat, one array per field, every transition
 * shaped like the first one added: a stored transition costs its
 * payload and no heap blocks of its own (a Transition of the fast
 * preset is 7 of them, more than doubling its size). States live in a
 * ring of rows that transitions index, and a state equal to the
 * previous transition's next state -- every transition of a continuing
 * task -- reuses that row, so each joint state is stored once. Rows are
 * handed out in order, so a transition's next state is always the row
 * after its state's, and only the state's row is stored. Action
 * indices take 16 bits. Read stored transitions back through state()
 * .. done().
 */
class PrioritizedReplay
{
  public:
    explicit PrioritizedReplay(const ReplayConfig &cfg);

    /** Add a transition with max-seen priority (so it is replayed
     * soon). Fatal if its shape (state width, agents, branches per
     * agent, rewards) differs from the first transition's, or if an
     * action index does not fit 16 bits. */
    void add(const Transition &t);

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cfg_.capacity; }
    bool empty() const { return size_ == 0; }

    /**
     * Sample @p n indices proportionally to priority^alpha and compute
     * importance weights (w_i = (N * P(i))^-beta, normalised by max w).
     */
    ReplaySample sample(std::size_t n, double beta, common::Rng &rng) const;

    /**
     * As sample(), but reusing @p out's buffers — the allocation-free
     * path for the steady-state training loop.
     */
    void sampleInto(std::size_t n, double beta, common::Rng &rng,
                    ReplaySample &out) const;

    /** Update priorities after a training step (|TD error| based). */
    void updatePriorities(const std::vector<std::size_t> &indices,
                          const std::vector<double> &td_errors);

    /** Stored transition @p idx: its joint state and next state
     * (stateDim() floats each), agent k's action on branch d, agent k's
     * reward and its terminal flag. */
    const float *state(std::size_t idx) const
    {
        return rows_.data() + stateRow_[idx] * stateDim_;
    }
    const float *nextState(std::size_t idx) const
    {
        return rows_.data() + (stateRow_[idx] + 1) % ringRows() * stateDim_;
    }
    std::size_t action(std::size_t idx, std::size_t k, std::size_t d) const
    {
        return actions_[(idx * agents_ + k) * branches_ + d];
    }
    double reward(std::size_t idx, std::size_t k) const
    {
        return rewards_[idx * agents_ + k];
    }
    bool done(std::size_t idx) const { return done_[idx] != 0; }
    std::size_t stateDim() const { return stateDim_; }

  private:
    /** Copy @p x into the next row of the ring; returns its index. */
    std::uint32_t storeRow(const std::vector<float> &x);

    /** Rows of the state ring (see rows_). */
    std::size_t ringRows() const { return 2 * cfg_.capacity + 2; }

    ReplayConfig cfg_;
    SumTree tree_;
    // Shape of every stored transition, fixed by the first add().
    std::size_t stateDim_ = 0, agents_ = 0, branches_ = 0;
    // The state ring: rows are handed out in order and wrap after
    // 2 * capacity + 2 of them -- all the rows the live transitions
    // can reference (two each, allocated over the newest capacity + 1
    // adds) -- so a live row is never overwritten.
    std::vector<float> rows_;
    std::uint32_t nextRow_ = 0;
    std::vector<std::uint32_t> stateRow_;
    std::vector<std::uint16_t> actions_;
    std::vector<double> rewards_;
    std::vector<unsigned char> done_;
    std::size_t next_ = 0;
    std::size_t size_ = 0;
    double maxPriority_ = 1.0;
};

} // namespace twig::rl

#endif // TWIG_RL_REPLAY_HH
