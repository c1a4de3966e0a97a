#include "rl/bdq_learner.hh"

#include <cmath>

#include "common/error.hh"

namespace twig::rl {

namespace {

/**
 * trainStep() scratch, one per thread rather than one per learner:
 * it lives only for the length of a step, and every learner stepping
 * on the thread reuses it. Sized on the first gradient step, then
 * reused, so the steady-state training step performs zero heap
 * allocations (verified by tests/test_alloc.cc).
 */
struct StepScratch
{
    ReplaySample sample;
    nn::Matrix states, nextStates;
    nn::BdqOutput nextOnline, nextTarget;
    std::vector<std::vector<double>> targets;
    std::vector<double> tdPriority;
};

} // namespace

BdqLearner::BdqLearner(const BdqLearnerConfig &cfg, common::Rng &rng)
    : cfg_(cfg), rng_(rng.fork()), online_(cfg.net, rng_),
      target_(cfg.net, rng_), replay_(cfg.replay),
      epsilonSchedule_(makeEpsilonSchedule(cfg.epsilonMidStep,
                                           cfg.epsilonFinalStep,
                                           cfg.epsilonMid,
                                           cfg.epsilonFinal)),
      betaSchedule_(makeBetaSchedule(cfg.betaAnnealSteps))
{
    common::fatalIf(cfg.minibatch == 0, "BdqLearner: zero minibatch");
    common::fatalIf(cfg.discount < 0.0 || cfg.discount >= 1.0,
                    "BdqLearner: discount must be in [0, 1)");
    // Both networks start from identical weights (paper footnote 1).
    target_.copyParamsFrom(online_);
}

std::vector<nn::BranchActions>
BdqLearner::selectActions(const std::vector<float> &joint_state)
{
    const double eps = epsilon();
    // One eval forward into member scratch: the greedy argmax and the
    // sticky comparison below both read these Q-values.
    selectInput_.resize(1, joint_state.size());
    std::copy(joint_state.begin(), joint_state.end(),
              selectInput_.rowPtr(0));
    online_.greedyActionsRows(selectInput_, selectQ_, selectGreedy_);
    auto actions = selectGreedy_[0];

    // Sticky argmax: a converged policy has many near-tie Q values;
    // keep the previous choice unless a strictly better one appears.
    if (cfg_.actionStickiness > 0.0 &&
        lastGreedy_.size() == actions.size()) {
        const nn::BdqOutput &q = selectQ_;
        for (std::size_t k = 0; k < actions.size(); ++k) {
            for (std::size_t d = 0; d < actions[k].size(); ++d) {
                const auto prev = lastGreedy_[k][d];
                const auto best = actions[k][d];
                if (q.q[k][d](0, prev) + cfg_.actionStickiness >=
                    q.q[k][d](0, best)) {
                    actions[k][d] = prev;
                }
            }
        }
    }
    lastGreedy_ = actions;

    holdRemaining_.resize(actions.size(), 0);
    heldAction_.resize(actions.size());
    for (std::size_t k = 0; k < actions.size(); ++k) {
        if (holdRemaining_[k] > 0) {
            // Continue a held exploratory action.
            --holdRemaining_[k];
            actions[k] = heldAction_[k];
        } else if (rng_.uniform() < eps) {
            for (std::size_t d = 0; d < actions[k].size(); ++d) {
                actions[k][d] =
                    rng_.uniformInt(cfg_.net.branchActions[d]);
            }
            // Hold exploratory actions only while still learning
            // broadly: late in the run a multi-step hold of a random
            // action turns into a needless violation burst.
            if (cfg_.exploreHoldSteps > 1 && eps > 0.05) {
                heldAction_[k] = actions[k];
                holdRemaining_[k] = cfg_.exploreHoldSteps - 1;
            }
        }
    }
    return actions;
}

std::optional<TrainStats>
BdqLearner::observe(const Transition &t)
{
    common::fatalIf(t.state.size() != cfg_.net.inputDim() ||
                        t.nextState.size() != cfg_.net.inputDim(),
                    "observe: joint-state size mismatch");
    common::fatalIf(t.actions.size() != cfg_.net.numAgents ||
                        t.rewards.size() != cfg_.net.numAgents,
                    "observe: agent count mismatch");
    for (const auto &a : t.actions)
        common::fatalIf(a.size() != cfg_.net.numBranches(),
                        "observe: branch count mismatch");
    replay_.add(t);
    ++step_;

    std::optional<TrainStats> stats;
    if (replay_.size() >= cfg_.minReplayBeforeTraining &&
        step_ % cfg_.trainEvery == 0) {
        for (std::size_t g = 0; g < cfg_.gradientStepsPerTrain; ++g)
            stats = trainStep();
    }

    if (++stepsSinceTargetUpdate_ >= cfg_.targetUpdateInterval) {
        target_.copyParamsFrom(online_);
        stepsSinceTargetUpdate_ = 0;
    }
    return stats;
}

TrainStats
BdqLearner::trainStep()
{
    thread_local StepScratch scratch;
    const std::size_t batch = std::min(cfg_.minibatch, replay_.size());
    const double beta = betaSchedule_.at(step_);
    ReplaySample &sample = scratch.sample;
    replay_.sampleInto(batch, beta, rng_, sample);

    const std::size_t in = cfg_.net.inputDim();
    const std::size_t K = cfg_.net.numAgents;
    const std::size_t D = cfg_.net.numBranches();

    nn::Matrix &states = scratch.states;
    nn::Matrix &next_states = scratch.nextStates;
    states.resize(batch, in);
    next_states.resize(batch, in);
    for (std::size_t i = 0; i < batch; ++i) {
        const std::size_t idx = sample.indices[i];
        std::copy_n(replay_.state(idx), in, states.rowPtr(i));
        std::copy_n(replay_.nextState(idx), in, next_states.rowPtr(i));
    }

    // Double DQN: online net picks the next action, target net values it.
    nn::BdqOutput &next_online = scratch.nextOnline;
    nn::BdqOutput &next_target = scratch.nextTarget;
    online_.forward(next_states, next_online, false);
    target_.forward(next_states, next_target, false);

    // TD target per agent: y_k = r_k + gamma * (1/D) sum_d
    //     Q_target_{k,d}(s', argmax_a Q_online_{k,d}(s', a))
    std::vector<std::vector<double>> &targets = scratch.targets;
    if (targets.size() != K)
        targets.resize(K);
    for (auto &per_agent : targets)
        per_agent.assign(batch, 0.0);
    for (std::size_t k = 0; k < K; ++k) {
        for (std::size_t i = 0; i < batch; ++i) {
            const std::size_t idx = sample.indices[i];
            double bootstrap = 0.0;
            if (!replay_.done(idx)) {
                for (std::size_t d = 0; d < D; ++d) {
                    const nn::Matrix &qo = next_online.q[k][d];
                    std::size_t best = 0;
                    for (std::size_t a = 1; a < qo.cols(); ++a) {
                        if (qo(i, a) > qo(i, best))
                            best = a;
                    }
                    bootstrap += next_target.q[k][d](i, best);
                }
                bootstrap /= static_cast<double>(D);
            }
            const double r =
                std::clamp(cfg_.rewardScale * replay_.reward(idx, k),
                           cfg_.rewardClipMin, cfg_.rewardClipMax);
            targets[k][i] = r + cfg_.discount * bootstrap;
        }
    }

    // Forward the sampled states in train mode, build the Q gradients.
    // Both reuse the next-state outputs' storage, whose values the TD
    // targets above have consumed.
    nn::BdqOutput &out = next_online;
    online_.forward(states, out, true);

    std::vector<std::vector<nn::Matrix>> &dq = next_target.q;
    if (dq.size() != K)
        dq.resize(K);
    std::vector<double> &td_for_priority = scratch.tdPriority;
    td_for_priority.assign(batch, 0.0);
    double loss = 0.0;
    double abs_td = 0.0;
    const float grad_scale =
        2.0f / static_cast<float>(batch * D);
    for (std::size_t k = 0; k < K; ++k) {
        if (dq[k].size() != D)
            dq[k].resize(D);
        for (std::size_t d = 0; d < D; ++d) {
            const std::size_t n = cfg_.net.branchActions[d];
            dq[k][d].resize(batch, n);
            dq[k][d].fill(0.0f);
        }
        for (std::size_t i = 0; i < batch; ++i) {
            const std::size_t idx = sample.indices[i];
            const double w = sample.weights[i];
            double agent_td = 0.0;
            for (std::size_t d = 0; d < D; ++d) {
                const std::size_t a = replay_.action(idx, k, d);
                const double q = out.q[k][d](i, a);
                const double td = q - targets[k][i];
                agent_td += std::abs(td);
                // Huber loss: quadratic core, linear tails.
                const double h = cfg_.huberDelta;
                const double abs_td = std::abs(td);
                loss += w / static_cast<double>(D) *
                    (abs_td <= h ? td * td
                                 : h * (2.0 * abs_td - h));
                const double clipped =
                    std::clamp(td, -h, h);
                dq[k][d](i, a) =
                    static_cast<float>(w * clipped) * grad_scale;
            }
            // Clip the replay priority as well, so violation-heavy
            // transitions cannot monopolise the sampling distribution.
            agent_td = std::min(agent_td / static_cast<double>(D),
                                cfg_.huberDelta);
            td_for_priority[i] += agent_td / static_cast<double>(K);
            abs_td += agent_td / static_cast<double>(K);
        }
    }
    loss /= static_cast<double>(batch * K);
    abs_td /= static_cast<double>(batch);

    online_.backward(dq);
    online_.adamStep();
    replay_.updatePriorities(sample.indices, td_for_priority);

    return TrainStats{loss, abs_td};
}

void
BdqLearner::beginTransfer(std::size_t reexplore_steps, double eps_start)
{
    online_.reinitializeOutputLayers(rng_);
    target_.copyParamsFrom(online_);
    stepsSinceTargetUpdate_ = 0;
    // Short re-exploration window starting at the *current* step.
    epsilonSchedule_ = PiecewiseLinearSchedule(
        {{step_, eps_start},
         {step_ + std::max<std::size_t>(reexplore_steps, 1),
          cfg_.epsilonFinal}});
}

} // namespace twig::rl
