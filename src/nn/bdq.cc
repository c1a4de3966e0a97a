#include "nn/bdq.hh"

#include <algorithm>
#include <utility>

namespace twig::nn {

MultiAgentBdq::MultiAgentBdq(const BdqConfig &cfg, common::Rng &rng)
    : cfg_(cfg), rng_(rng.fork())
{
    common::fatalIf(cfg.numAgents == 0, "BDQ: need at least one agent");
    common::fatalIf(cfg.stateDimPerAgent == 0, "BDQ: empty state");
    common::fatalIf(cfg.branchActions.empty(), "BDQ: need >= 1 branch");
    for (std::size_t n : cfg.branchActions)
        common::fatalIf(n == 0, "BDQ: branch with zero actions");
    common::fatalIf(cfg.trunkHidden.empty(), "BDQ: trunk must be non-empty");

    std::size_t prev = cfg.inputDim();
    for (std::size_t h : cfg.trunkHidden) {
        trunk_.emplace_back(prev, h, cfg.dropoutRate, rng_);
        prev = h;
    }
    for (std::size_t k = 0; k < cfg.numAgents; ++k)
        agents_.emplace_back(prev, cfg.agentHeadHidden, rng_);
    for (std::size_t n : cfg.branchActions) {
        branches_.emplace_back(cfg.agentHeadHidden, cfg.branchHidden, n,
                               cfg.dropoutRate, rng_);
    }
}

/**
 * Everything a train-mode forward leaves for backward(), and
 * backward()'s own buffers, held once per thread instead of once per
 * network: a learner's step runs its train forward and backward back
 * to back on one thread, so networks on that thread take turns with
 * one set. Grows to the largest network on the thread, then allocates
 * no more.
 */
struct MultiAgentBdq::TrainWorkspace
{
    /** The network whose train-mode forward filled it last. */
    const MultiAgentBdq *owner = nullptr;
    std::size_t batch = 0;
    Activations act;
    /** ReLU masks: per trunk stage, all agents' stacked embeddings,
     * per branch. */
    std::vector<ReLU> trunkRelu, branchRelu;
    ReLU embedRelu;
    // Backward buffers.
    Matrix dStacked; // d(stacked embeddings), accumulated
    Matrix dAdv;     // dueling-combine gradient per branch
    Matrix g1, g2;
    Matrix dH;       // d(trunk output), accumulated over agents
    Matrix dv;
    Matrix tmp;      // trunk ping-pong buffer
};

MultiAgentBdq::TrainWorkspace &
MultiAgentBdq::threadWorkspace()
{
    thread_local TrainWorkspace ws;
    return ws;
}

void
MultiAgentBdq::forward(const Matrix &x, BdqOutput &out, bool train)
{
    common::fatalIf(x.cols() != cfg_.inputDim(),
                    "BDQ::forward: joint state width ", x.cols(),
                    " != expected ", cfg_.inputDim());
    const std::size_t batch = x.rows();
    const auto atLeast = [](auto &v, std::size_t n) {
        if (v.size() < n)
            v.resize(n);
    };

    // A train pass writes its activations and ReLU masks to this
    // thread's workspace for backward(). An evaluation pass (the
    // target network's, a decision) writes its activations to a
    // second per-thread set, and no masks. So a network holds no
    // activations of its own.
    thread_local Activations eval_act;
    TrainWorkspace *ws = nullptr;
    if (train) {
        ws = &threadWorkspace();
        ws->owner = this;
        ws->batch = batch;
        trainWs_ = ws;
        atLeast(ws->trunkRelu, trunk_.size());
        atLeast(ws->branchRelu, branches_.size());
    }
    Activations &act = train ? ws->act : eval_act;
    atLeast(act.trunk, trunk_.size());
    atLeast(act.trunkDrop, trunk_.size());
    atLeast(act.value, agents_.size());
    atLeast(act.hidden, branches_.size());
    atLeast(act.hiddenDrop, branches_.size());
    atLeast(act.adv, branches_.size());

    // Shared trunk (linear+ReLU fused per stage). Dropout only acts in
    // a train pass.
    const Matrix *cur = &x;
    for (std::size_t s = 0; s < trunk_.size(); ++s) {
        auto &stage = trunk_[s];
        Matrix &y = act.trunk[s];
        const std::size_t width = stage.linear.outFeatures();
        y.resize(batch, width);
        stage.linear.forwardRelu(
            *cur, y,
            train ? ws->trunkRelu[s].primeMask(batch, width) : nullptr);
        cur = train ? &stage.dropout.forward(y, act.trunkDrop[s], true,
                                             rng_)
                    : &y;
    }
    const Matrix &h = *cur;

    // Per-agent state heads. Each embedding GEMM writes its agent's
    // row block of the stacked matrix the branch modules read.
    const std::size_t hw = cfg_.agentHeadHidden;
    act.stacked.resize(cfg_.numAgents * batch, hw);
    unsigned char *embed_mask =
        train ? ws->embedRelu.primeMask(cfg_.numAgents * batch, hw)
              : nullptr;
    for (std::size_t k = 0; k < cfg_.numAgents; ++k) {
        auto &agent = agents_[k];
        const MatrixView embed = act.stacked.rowBlock(k * batch, batch);
        agent.embed.forwardRelu(
            h, embed, train ? embed_mask + k * batch * hw : nullptr);
        agent.valueOut.forward(embed, act.value[k], train);
    }

    // Per-branch advantage modules over the stacked embeddings.
    // Reshape the output in place: the nested vectors and matrices
    // keep their buffers across calls, so steady-state forward passes
    // do not allocate.
    if (out.q.size() != cfg_.numAgents)
        out.q.resize(cfg_.numAgents);
    for (auto &per_agent : out.q) {
        if (per_agent.size() != cfg_.numBranches())
            per_agent.resize(cfg_.numBranches());
    }
    for (std::size_t d = 0; d < branches_.size(); ++d) {
        auto &br = branches_[d];
        Matrix &hidden = act.hidden[d];
        Matrix &adv = act.adv[d];
        const std::size_t rows = cfg_.numAgents * batch;
        hidden.resize(rows, cfg_.branchHidden);
        br.hidden.forwardRelu(
            act.stacked, hidden,
            train ? ws->branchRelu[d].primeMask(rows, cfg_.branchHidden)
                  : nullptr);
        br.advOut.forward(train ? br.dropout.forward(hidden,
                                                     act.hiddenDrop[d],
                                                     true, rng_)
                                : hidden,
                          adv, train);

        const std::size_t n = cfg_.branchActions[d];
        for (std::size_t k = 0; k < cfg_.numAgents; ++k) {
            Matrix &q = out.q[k][d];
            q.resize(batch, n);
            for (std::size_t i = 0; i < batch; ++i) {
                const float *adv_row = adv.rowPtr(k * batch + i);
                float mean = 0.0f;
                for (std::size_t a = 0; a < n; ++a)
                    mean += adv_row[a];
                mean /= static_cast<float>(n);
                const float v = act.value[k](i, 0);
                float *q_row = q.rowPtr(i);
                for (std::size_t a = 0; a < n; ++a)
                    q_row[a] = v + adv_row[a] - mean;
            }
        }
    }
}

void
MultiAgentBdq::backward(const std::vector<std::vector<Matrix>> &dq)
{
    TrainWorkspace &ws = threadWorkspace();
    common::panicIf(trainWs_ == nullptr,
                    "BDQ::backward without a train-mode forward");
    common::panicIf(trainWs_ != &ws || ws.owner != this,
                    "BDQ::backward: its train-mode forward ran on "
                    "another thread, or another network's has run on "
                    "this thread since");
    common::fatalIf(dq.size() != cfg_.numAgents,
                    "BDQ::backward: wrong agent count");
    const std::size_t batch = ws.batch;
    const std::size_t hw = cfg_.agentHeadHidden;
    const float inv_k = 1.0f / static_cast<float>(cfg_.numAgents);
    const float inv_d = 1.0f / static_cast<float>(cfg_.numBranches());

    // Gradient wrt the stacked embeddings: every branch's input
    // gradient adds into it as its GEMM makes it.
    Matrix &d_stacked = ws.dStacked;
    d_stacked.resize(cfg_.numAgents * batch, hw);
    d_stacked.zero();
    Matrix &d_adv = ws.dAdv;
    Matrix &g1 = ws.g1, &g2 = ws.g2;
    for (std::size_t d = 0; d < branches_.size(); ++d) {
        auto &br = branches_[d];
        const std::size_t n = cfg_.branchActions[d];

        // Dueling combine backward:
        //   Q(i,a) = V(i) + A(i,a) - mean_b A(i,b)
        //   dA(i,a) = dQ(i,a) - (1/n) sum_b dQ(i,b)
        d_adv.resize(cfg_.numAgents * batch, n);
        for (std::size_t k = 0; k < cfg_.numAgents; ++k) {
            const Matrix &dqkd = dq[k][d];
            common::fatalIf(dqkd.rows() != batch || dqkd.cols() != n,
                            "BDQ::backward: dq shape mismatch");
            for (std::size_t i = 0; i < batch; ++i) {
                const float *src = dqkd.rowPtr(i);
                float row_sum = 0.0f;
                for (std::size_t a = 0; a < n; ++a)
                    row_sum += src[a];
                const float mean = row_sum / static_cast<float>(n);
                float *dst = d_adv.rowPtr(k * batch + i);
                for (std::size_t a = 0; a < n; ++a)
                    dst[a] = src[a] - mean;
            }
        }

        br.advOut.backward(d_adv, g1);
        // Paper: rescale the combined gradient by 1/K before it enters
        // the deepest layer in the advantage dimension.
        g1.scaleInPlace(inv_k);
        // The ReLU gradient overwrites g1 (in place when the dropout is
        // the identity).
        ws.branchRelu[d].backward(br.dropout.backward(g1, g2), g1);
        br.hidden.backwardAccumulate(g1, d_stacked);
    }

    // Per-agent heads: the value path's input gradient adds into the
    // agent's rows of d_stacked, then one ReLU pass masks every
    // agent's rows.
    Matrix &dv = ws.dv;
    dv.resize(batch, 1);
    for (std::size_t k = 0; k < cfg_.numAgents; ++k) {
        for (std::size_t i = 0; i < batch; ++i) {
            float s = 0.0f;
            for (std::size_t d = 0; d < cfg_.numBranches(); ++d) {
                const float *row = dq[k][d].rowPtr(i);
                for (std::size_t a = 0; a < cfg_.branchActions[d]; ++a)
                    s += row[a];
            }
            dv(i, 0) = s;
        }
        agents_[k].valueOut.backwardAccumulate(
            dv, d_stacked.rowBlock(k * batch, batch));
    }
    ws.embedRelu.backward(d_stacked, d_stacked);
    const std::size_t trunk_out = cfg_.trunkHidden.back();
    Matrix &d_h = ws.dH;
    d_h.resize(batch, trunk_out);
    d_h.zero();
    for (std::size_t k = 0; k < cfg_.numAgents; ++k) {
        agents_[k].embed.backwardAccumulate(
            d_stacked.rowBlock(k * batch, batch), d_h);
    }

    // Paper: rescale the combined gradient for the shared representation
    // by 1/D (number of action dimensions).
    d_h.scaleInPlace(inv_d);

    // Trunk backward (deepest stage last), ping-ponging two buffers;
    // the ReLU gradient lands in *grad (in place when the dropout is
    // the identity).
    Matrix *grad = &d_h, *tmp = &ws.tmp;
    for (std::size_t s = trunk_.size(); s-- > 0;) {
        auto &stage = trunk_[s];
        ws.trunkRelu[s].backward(stage.dropout.backward(*grad, *tmp),
                                 *grad);
        if (s == 0) {
            stage.linear.backwardNoInputGrad(*grad);
        } else {
            stage.linear.backward(*grad, *tmp);
            std::swap(grad, tmp);
        }
    }
}

void
MultiAgentBdq::adamStep()
{
    ++adamT_;
    forEachLinear([this](Linear &l) { l.adamStep(cfg_.adam, adamT_); });
}

BdqOutput
MultiAgentBdq::qValues(const std::vector<float> &joint_state)
{
    common::fatalIf(joint_state.size() != cfg_.inputDim(),
                    "qValues: wrong joint-state size");
    Matrix x(1, joint_state.size());
    std::copy(joint_state.begin(), joint_state.end(), x.rowPtr(0));
    BdqOutput out;
    forward(x, out, false);
    return out;
}

std::vector<BranchActions>
MultiAgentBdq::greedyActions(const std::vector<float> &joint_state)
{
    const BdqOutput out = qValues(joint_state);

    std::vector<BranchActions> actions(cfg_.numAgents);
    for (std::size_t k = 0; k < cfg_.numAgents; ++k) {
        actions[k].resize(cfg_.numBranches());
        for (std::size_t d = 0; d < cfg_.numBranches(); ++d) {
            const Matrix &q = out.q[k][d];
            std::size_t best = 0;
            for (std::size_t a = 1; a < q.cols(); ++a) {
                if (q(0, a) > q(0, best))
                    best = a;
            }
            actions[k][d] = best;
        }
    }
    return actions;
}

void
MultiAgentBdq::greedyActionsRows(
    const Matrix &x, BdqOutput &scratch,
    std::vector<std::vector<BranchActions>> &out)
{
    common::fatalIf(x.cols() != cfg_.inputDim(),
                    "greedyActionsRows: wrong joint-state width");
    forward(x, scratch, false);

    const std::size_t batch = x.rows();
    out.resize(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        out[b].resize(cfg_.numAgents);
        for (std::size_t k = 0; k < cfg_.numAgents; ++k) {
            out[b][k].resize(cfg_.numBranches());
            for (std::size_t d = 0; d < cfg_.numBranches(); ++d) {
                const Matrix &q = scratch.q[k][d];
                std::size_t best = 0;
                for (std::size_t a = 1; a < q.cols(); ++a) {
                    if (q(b, a) > q(b, best))
                        best = a;
                }
                out[b][k][d] = best;
            }
        }
    }
}

void
MultiAgentBdq::forEachLinear(const std::function<void(Linear &)> &fn)
{
    for (auto &stage : trunk_)
        fn(stage.linear);
    for (auto &agent : agents_) {
        fn(agent.embed);
        fn(agent.valueOut);
    }
    for (auto &br : branches_) {
        fn(br.hidden);
        fn(br.advOut);
    }
}

void
MultiAgentBdq::forEachLinear(
    const std::function<void(const Linear &)> &fn) const
{
    for (const auto &stage : trunk_)
        fn(stage.linear);
    for (const auto &agent : agents_) {
        fn(agent.embed);
        fn(agent.valueOut);
    }
    for (const auto &br : branches_) {
        fn(br.hidden);
        fn(br.advOut);
    }
}

void
MultiAgentBdq::copyParamsFrom(const MultiAgentBdq &other)
{
    common::fatalIf(paramCount() != other.paramCount(),
                    "copyParamsFrom: incompatible networks");
    std::vector<const Linear *> src;
    other.forEachLinear(
        [&src](const Linear &l) { src.push_back(&l); });
    std::size_t i = 0;
    forEachLinear([&](Linear &l) { l.copyParamsFrom(*src[i++]); });
}

void
MultiAgentBdq::reinitializeOutputLayers(common::Rng &rng)
{
    for (auto &agent : agents_)
        agent.valueOut.reinitialize(rng);
    for (auto &br : branches_)
        br.advOut.reinitialize(rng);
}

Linear &
MultiAgentBdq::advantageOutputLayer(std::size_t d)
{
    common::fatalIf(d >= branches_.size(), "bad branch index");
    return branches_[d].advOut;
}

Linear &
MultiAgentBdq::valueOutputLayer(std::size_t k)
{
    common::fatalIf(k >= agents_.size(), "bad agent index");
    return agents_[k].valueOut;
}

std::size_t
MultiAgentBdq::paramCount() const
{
    std::size_t n = 0;
    forEachLinear([&n](const Linear &l) { n += l.paramCount(); });
    return n;
}

void
MultiAgentBdq::save(std::ostream &os) const
{
    forEachLinear([&os](const Linear &l) { l.save(os); });
}

void
MultiAgentBdq::load(std::istream &is)
{
    forEachLinear([&is](Linear &l) { l.load(is); });
}

} // namespace twig::nn
