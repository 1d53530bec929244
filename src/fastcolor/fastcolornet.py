"""Policy and value networks over coloring states.

A move is scored from three fixed-size contexts: a graph summary (bucketed
one-hot counts), a window of vertex embeddings around the current position
in the visitation order, and one small embedding set per candidate color.
The V-network maps the first two to a 3-way outcome distribution; the
P-network scores every candidate with shared weights and normalizes across
the dynamic action set.

Training couples the networks to the embedding table: context rows are
occasionally made "live" by recomputing them from the current transfer
parameters along their sampled message chain, so the loss gradient reaches
those parameters through the same chain.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .coloring import ActionSet, ColoringState, Outcome
from .embedding import (
    EmbeddingTable,
    init_transfer_params,
    walks_backward,
    walks_forward,
)
from .errors import ContractError, ParameterError
from .graph import Graph
from .nn import (
    BN_EPS,
    AdamState,
    ParamStore,
    adam_step,
    batchnorm_backward,
    batchnorm_forward,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    init_batchnorm,
    init_conv1d,
    init_dense,
    ragged_taps,
    softmax,
)
from .rng import make_rng

logger = logging.getLogger(__name__)

LOG_EPS = 1e-12

__all__ = [
    "MoveInput",
    "NetOutput",
    "TrainMove",
    "count_capped",
    "context_ids",
    "build_contexts",
    "init_fastcolornet",
    "v_forward",
    "p_forward",
    "InferenceNet",
    "freeze",
    "block_contexts",
    "window_terms",
    "decode_logits",
    "policy_value_forward",
    "evaluate",
    "evaluate_frozen",
    "fcn_loss",
    "forward_backward",
    "fcn_train_step",
]


# -- contexts ----------------------------------------------------------


@dataclass
class MoveInput:
    """Everything the networks need to score one move.

    ``pc_vertices`` and ``cand_vertices`` name the vertex behind each
    embedding row (-1 for zero padding) so training can route gradients
    back into the embedding parameters.
    """

    table: EmbeddingTable
    graph: Graph
    gc: np.ndarray  # (4 * feature_bins,)
    pc: np.ndarray  # (2w, D)
    pc_vertices: np.ndarray  # (2w,) int64
    cand_sets: np.ndarray  # (K, m, D)
    cand_vertices: np.ndarray  # (K, m) int64
    actions: list[int]
    capped: bool = False


@dataclass
class NetOutput:
    actions: list[int]
    p: np.ndarray  # (K,)
    v3: np.ndarray  # (win, tie, lose)
    v: float  # p_win - p_lose
    capped: bool = False


@dataclass
class TrainMove:
    move: MoveInput
    pi: np.ndarray
    z: Outcome


def count_capped(table: EmbeddingTable, cfg, t: int, existing: int) -> None:
    """Count one move at ``t``, with ``existing`` valid existing colors, cut
    to ``candidate_cap`` on ``table``; only a graph's first hit is logged."""
    table.capped_moves += 1
    if table.capped_moves == 1:
        logger.warning("candidate cap %d hit on %s at t=%d (%d existing colors); "
                       "later hits on this graph are counted, not logged",
                       cfg.candidate_cap, table.graph_key, t, existing)


def context_ids(state: ColoringState, table: EmbeddingTable, cfg,
                aset: ActionSet | None = None,
                count: bool = True) -> tuple[list[int], list[int], list[int], bool]:
    """The current move's contexts as ids, in plain Python ints:
    ``(actions, members, hot, capped)``.

    ``members`` lists the (K, m) candidate member ids row by row: the m
    most recent members of each candidate color, newest first, then the
    new color's empty set; -1 pads. ``hot`` lists the entries of the
    ``4 * feature_bins`` graph context that are 1: the vertex count (log2
    bucketed), colors used, vertices colored so far, and each valid
    existing color of ``aset`` (the state's action set). Moves with more
    existing colors than ``candidate_cap - 1`` keep the first ones; such a
    move is counted on the table (``count_capped``) unless ``count`` is
    false, for a caller that counts only the moves it decides.
    """
    g = state.graph
    n = g.n
    if table.tables.shape[1] != n:
        raise ContractError(
            f"embedding table covers {table.tables.shape[1]} vertices, graph has {n}")
    if aset is None:
        aset = state.valid_actions()
    bins = cfg.feature_bins
    maxc = g.max_degree + 1
    t = state.t
    # encode_onehot, inlined: min(value * bins // maximum, bins - 1)
    hot = [min(bins - 1, n.bit_length() - 1),
           bins + min(min(state.colors_used, maxc) * bins // maxc, bins - 1),
           2 * bins + min(t * bins // n, bins - 1)]
    hot += [3 * bins + min(c * bins // maxc, bins - 1) for c in aset.existing]
    existing = list(aset.existing)
    capped = len(existing) >= cfg.candidate_cap
    if capped:
        del existing[cfg.candidate_cap - 1:]
        if count:
            count_capped(table, cfg, t, len(aset.existing))
    m = cfg.color_set_size
    members: list[int] = []
    for color in existing:
        recent = state.color_members[color][:-m - 1:-1]
        members += recent
        members += [-1] * (m - len(recent))
    members += [-1] * m
    return existing + [aset.new_color], members, hot, capped


def build_contexts(state: ColoringState, table: EmbeddingTable, cfg,
                   aset: ActionSet | None = None, count: bool = True) -> MoveInput:
    """Contexts for the current move, in the embedding table's dtype: the
    rows behind ``context_ids`` (whose arguments these are), with the
    problem window ``state.order_window(window)``."""
    actions, members, hot, capped = context_ids(state, table, cfg, aset, count)
    rows = table.padded
    gc = np.zeros(4 * cfg.feature_bins, dtype=rows.dtype)
    gc[hot] = 1.0
    pc_vertices = state.order_window(cfg.window)
    cand_vertices = np.array(members, dtype=np.int64).reshape(len(actions), -1)
    return MoveInput(table=table, graph=state.graph, gc=gc,
                     pc=rows[pc_vertices], pc_vertices=pc_vertices,
                     cand_sets=rows[cand_vertices], cand_vertices=cand_vertices,
                     actions=actions, capped=capped)


# -- parameter layout --------------------------------------------------


def _init_stack(store: ParamStore, prefix: str, c_in: int, width: int, layers: int,
                rng, filter_size: int | None = None) -> None:
    """Dense layers, or 1-d convolutions of ``filter_size`` taps, each with a batchnorm."""
    for i in range(layers):
        cin = c_in if i == 0 else width
        if filter_size is None:
            init_dense(store, f"{prefix}.{i}", cin, width, rng)
        else:
            init_conv1d(store, f"{prefix}.{i}", filter_size, cin, width, rng)
        init_batchnorm(store, f"{prefix}.{i}.bn", width)


def init_fastcolornet(cfg, seed: int | None = None) -> ParamStore:
    """Fresh parameters for the transfer function and both networks.

    The final heads start at zero, so an untrained model emits uniform
    distributions for both p and the outcome softmax.
    """
    rng = make_rng(cfg.init_seed if seed is None else seed)
    store = ParamStore(dtype=np.dtype(cfg.dtype))
    init_transfer_params(store, cfg, rng)

    gc_width = 4 * cfg.feature_bins
    _init_stack(store, "v.seq", cfg.embed_dim, cfg.seq_channels, cfg.seq_layers, rng,
                cfg.seq_filter)
    _init_stack(store, "v.fc", gc_width + cfg.seq_channels, cfg.v_width, cfg.v_layers, rng)
    init_dense(store, "v.head", cfg.v_width, 3, rng, zero=True)

    cand_in = gc_width + cfg.embed_dim + cfg.color_set_size * cfg.embed_dim
    _init_stack(store, "p.fc", cand_in, cfg.p_width, cfg.p_layers, rng)
    _init_stack(store, "p.seq", cfg.p_width, cfg.seq_channels, cfg.seq_layers, rng,
                cfg.seq_filter)
    init_dense(store, "p.head", cfg.seq_channels, 1, rng, zero=True)
    return store


# -- stacks ------------------------------------------------------------


def _stack_forward(store, prefix, weight, x, layers, training, forward):
    """Residual blocks over x (..., C_in): layer ``forward(x, w, b)``, with w
    the store's ``{prefix}.{i}.{weight}``, -> batchnorm (joint over all
    leading axes) -> ReLU, plus the block's input whenever the channel
    counts match. Returns the output and the per-layer caches."""
    caches = []
    for i in range(layers):
        name = f"{prefix}.{i}"
        y, layer_cache = forward(x, store[f"{name}.{weight}"], store[f"{name}.b"])
        y, bn_cache = batchnorm_forward(
            y, store[f"{name}.bn.gamma"], store[f"{name}.bn.beta"],
            store[f"{name}.bn._running_mean"], store[f"{name}.bn._running_var"], training)
        mask = y > 0
        y = y * mask
        skip = x.shape[-1] == y.shape[-1]
        x = x + y if skip else y
        caches.append((layer_cache, bn_cache, mask, skip))
    return x, caches


def _stack_backward(store, prefix, weight, dout, caches, grads, backward):
    """``_stack_forward``'s input gradient; ``backward`` is its layer op's."""
    for i in reversed(range(len(caches))):
        name = f"{prefix}.{i}"
        layer_cache, bn_cache, mask, skip = caches[i]
        dy, dgamma, dbeta = batchnorm_backward(dout * mask, bn_cache)
        _acc(grads, f"{name}.bn.gamma", dgamma)
        _acc(grads, f"{name}.bn.beta", dbeta)
        dx, dw, db = backward(dy, layer_cache)
        _acc(grads, f"{name}.{weight}", dw)
        _acc(grads, f"{name}.b", db)
        dout = dx + dout if skip else dx
    return dout


def _acc(grads: dict, name: str, val: np.ndarray) -> None:
    if name in grads:
        grads[name] = grads[name] + val
    else:
        grads[name] = val


def _pool_backward(dp: np.ndarray, x_shape) -> np.ndarray:
    # gradient of the mean over axis 1: (B, C) -> (B, S, C)
    return np.broadcast_to(dp[:, None, :] / x_shape[1], x_shape).copy()


# -- networks ----------------------------------------------------------


def v_forward(store: ParamStore, cfg, moves: list[MoveInput], training: bool,
              pc_override: np.ndarray | None = None):
    """Outcome head over a batch of moves; returns (v3 (B,3), logits, cache)."""
    pc = pc_override if pc_override is not None else np.stack([mi.pc for mi in moves])
    gc = np.stack([mi.gc for mi in moves])
    seq_out, seq_cache = _stack_forward(store, "v.seq", "k", pc, cfg.seq_layers, training,
                                        conv1d_forward)
    h = np.concatenate([gc, seq_out.mean(axis=1)], axis=1)
    fc_out, fc_cache = _stack_forward(store, "v.fc", "w", h, cfg.v_layers, training,
                                      dense_forward)
    logits, head_cache = dense_forward(fc_out, store["v.head.w"], store["v.head.b"])
    v3 = softmax(logits)
    cache = (seq_cache, seq_out.shape, fc_cache, head_cache, gc.shape[1])
    return v3, logits, cache


def v_backward(store: ParamStore, dlogits: np.ndarray, cache, grads: dict) -> np.ndarray:
    seq_cache, seq_shape, fc_cache, head_cache, gc_width = cache
    dh, dw, db = dense_backward(dlogits, head_cache)
    _acc(grads, "v.head.w", dw)
    _acc(grads, "v.head.b", db)
    dh = _stack_backward(store, "v.fc", "w", dh, fc_cache, grads, dense_backward)
    dseq = _pool_backward(dh[:, gc_width:], seq_shape)
    return _stack_backward(store, "v.seq", "k", dseq, seq_cache, grads, conv1d_backward)


def p_forward(store: ParamStore, cfg, moves: list[MoveInput], training: bool,
              pc_override: np.ndarray | None = None,
              cand_override: list[np.ndarray] | None = None):
    """Candidate scores; returns (list of p vectors, list of logits, cache)."""
    sizes = [mi.cand_sets.shape[0] for mi in moves]
    if 0 in sizes:
        raise ContractError("every move must offer at least one candidate")
    pc = pc_override if pc_override is not None else np.stack([mi.pc for mi in moves])
    gc = np.stack([mi.gc for mi in moves])
    cands = cand_override if cand_override is not None else [mi.cand_sets for mi in moves]
    head = np.concatenate([gc, pc.mean(axis=1)], axis=1)
    x = np.concatenate([np.repeat(head, sizes, axis=0),
                        np.concatenate([c.reshape(c.shape[0], -1) for c in cands])], axis=1)
    feats, fc_cache = _stack_forward(store, "p.fc", "w", x, cfg.p_layers, training,
                                     dense_forward)
    # one zero-padded sequence per move, so conv taps never cross moves
    taps = ragged_taps(sizes, cfg.seq_filter)
    feats, seq_cache = _stack_forward(store, "p.seq", "k", feats, cfg.seq_layers, training,
                                      lambda x, k, b: conv1d_forward(x, k, b, taps=taps))
    scores, head_cache = dense_forward(feats, store["p.head.w"], store["p.head.b"])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    logits_list = np.split(scores[:, 0], starts[1:])
    p_list = [softmax(lg) for lg in logits_list]
    cache = (starts, pc.shape, fc_cache, seq_cache, head_cache, gc.shape[1])
    return p_list, logits_list, cache


def p_backward(store: ParamStore, dlogits_list, cache, grads: dict):
    """Returns (d_pc (B,2w,D), list of d_cand (K,m,D))."""
    starts, pc_shape, fc_cache, seq_cache, head_cache, gcw = cache
    dscores = np.concatenate(dlogits_list)[:, None]
    dfeats, dw, db = dense_backward(dscores, head_cache)
    _acc(grads, "p.head.w", dw)
    _acc(grads, "p.head.b", db)
    dfeats = _stack_backward(store, "p.seq", "k", dfeats, seq_cache, grads, conv1d_backward)
    dx = _stack_backward(store, "p.fc", "w", dfeats, fc_cache, grads, dense_backward)
    # every candidate row of a move saw the same pooled problem context
    dim = pc_shape[2]
    d_pc = _pool_backward(np.add.reduceat(dx[:, gcw:gcw + dim], starts, axis=0), pc_shape)
    d_cands = np.split(dx[:, gcw + dim:].reshape(dx.shape[0], -1, dim), starts[1:])
    return d_pc, d_cands


# -- frozen inference --------------------------------------------------


@dataclass(frozen=True)
class FoldedLayer:
    """A layer -> eval-mode batchnorm -> ReLU block.

    Batchnorm with frozen statistics is a per-channel affine map, so the
    block computes relu((x @ w + b) * scale + shift), plus the input where
    the channel counts match. ``w`` and ``b`` are the store's own arrays.
    """

    w: np.ndarray  # dense (C_in, C_out) or conv kernel (F, C_in, C_out)
    b: np.ndarray
    scale: np.ndarray  # gamma / sqrt(running_var + eps)
    shift: np.ndarray  # beta - running_mean * scale


@dataclass(frozen=True)
class InferenceNet:
    """Eval-mode view of one parameter version.

    Holds per-channel vectors only, in the store's dtype; weights are
    shared with the store. The snapshot is valid as long as that version
    is: replacing the store's arrays (as ``adam_step`` does) leaves it
    describing the old version.
    """

    v_seq: tuple[FoldedLayer, ...]
    v_fc: tuple[FoldedLayer, ...]
    v_head: tuple[np.ndarray, np.ndarray]
    p_fc: tuple[FoldedLayer, ...]
    p_seq: tuple[FoldedLayer, ...]
    p_head: tuple[np.ndarray, np.ndarray]


def _fold(store: ParamStore, prefix: str, weight: str, layers: int) -> tuple[FoldedLayer, ...]:
    out = []
    for i in range(layers):
        name = f"{prefix}.{i}"
        var = store[f"{name}.bn._running_var"].astype(np.float64)
        scale = store[f"{name}.bn.gamma"] / np.sqrt(var + BN_EPS)
        shift = store[f"{name}.bn.beta"] - store[f"{name}.bn._running_mean"] * scale
        out.append(FoldedLayer(store[f"{name}.{weight}"], store[f"{name}.b"],
                               scale.astype(store.dtype), shift.astype(store.dtype)))
    return tuple(out)


def freeze(store: ParamStore, cfg) -> InferenceNet:
    """Fold every batchnorm of both networks into its preceding layer."""
    return InferenceNet(
        v_seq=_fold(store, "v.seq", "k", cfg.seq_layers),
        v_fc=_fold(store, "v.fc", "w", cfg.v_layers),
        v_head=(store["v.head.w"], store["v.head.b"]),
        p_fc=_fold(store, "p.fc", "w", cfg.p_layers),
        p_seq=_fold(store, "p.seq", "k", cfg.seq_layers),
        p_head=(store["p.head.w"], store["p.head.b"]),
    )


def _folded_block(y: np.ndarray, layer: FoldedLayer,
                  skip: np.ndarray | None = None) -> np.ndarray:
    """relu(y * scale + shift) (+ ``skip``), in place, for a layer's output y."""
    y *= layer.scale
    y += layer.shift
    np.maximum(y, 0, out=y)
    if skip is not None:
        y += skip
    return y


def _folded_stack(x: np.ndarray, layers: tuple[FoldedLayer, ...], forward) -> np.ndarray:
    """The folded blocks in order; ``forward(x, w, b)`` is each layer's op."""
    for layer in layers:
        y, _ = forward(x, layer.w, layer.b)
        x = _folded_block(y, layer, x if y.shape[-1] == x.shape[-1] else None)
    return x


def _gather(cfg, runs: list[tuple[EmbeddingTable, list[int]]],
            hot: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(gc, slots)`` from ids: each move's ``hot`` bins scattered into
    a zero (B, G) ``gc``, and the member-slot rows (N, m * D) of every
    (table, member ids) run, in one ``table.padded`` gather per run."""
    width = 4 * cfg.feature_bins
    slots = np.concatenate([table.padded[ids] for table, ids in runs])
    slots = slots.reshape(-1, cfg.color_set_size * slots.shape[1])  # (N * m, D) -> (N, m * D)
    gc = np.zeros((len(hot), width), dtype=slots.dtype)
    gc.reshape(-1)[[b * width + i for b, bins in enumerate(hot) for i in bins]] = 1.0
    return gc, slots


def block_contexts(cfg, table: EmbeddingTable, windows: np.ndarray, members: list[int],
                   hot: list[list[int]]):
    """``(gc, pc, slots, rows)``, the ``decode_logits`` arrays of moves
    scored together on ``table``, from their ids: ``windows`` (B, 2w) are
    the moves' problem windows (``order_window``), ``members`` their
    candidate member ids as ``context_ids`` lists them, move after move,
    and ``hot`` each move's hot bins. Candidate rows with the same m
    member ids share one slot row: ``slots`` holds each distinct row
    once, in order of first use, and candidate row i is
    ``slots[rows[i]]``. The rows of one move are all distinct, since
    colors have disjoint members."""
    distinct: dict[tuple[int, ...], int] = {}
    keys = zip(*[iter(members)] * cfg.color_set_size)  # each row's m ids
    rows = [distinct.setdefault(key, len(distinct)) for key in keys]
    gc, slots = _gather(cfg, [(table, list(chain.from_iterable(distinct)))], hot)
    return gc, table.padded[windows], slots, np.array(rows)


def window_terms(net: InferenceNet, pc: np.ndarray) -> np.ndarray:
    """(M, D + C): the pooled rows of each problem window of ``pc``
    (M, 2w, D), then its pooled v.seq output. Both depend on the window
    alone, not on the colors of the move."""
    seq = _folded_stack(pc, net.v_seq, conv1d_forward)
    return np.concatenate([pc.mean(axis=1), seq.mean(axis=1)], axis=1)


def _policy_scores(net: InferenceNet, gc: np.ndarray, pooled_pc: np.ndarray,
                   slots: np.ndarray, sizes: list[int],
                   rows: np.ndarray | None = None) -> np.ndarray:
    """Float64 candidate logits of every move, concatenated; the policy
    half of ``policy_value_forward``.

    ``gc`` (B, G) and ``pooled_pc`` (B, D) are the moves' graph contexts
    and pooled problem windows, ``sizes`` their candidate counts and
    ``slots`` the member-slot rows (., m * D): one per candidate row, or,
    with ``rows``, the distinct ones, candidate row i being
    ``slots[rows[i]]``. p.fc.0 is split by its input columns: the shared
    ones, ``gc`` and the pooled ``pc``, are multiplied once per move, and
    the member-slot ones once per row of ``slots``, in one product over
    the whole batch. p.seq convolves each move's rows as one sequence
    (``conv1d_forward`` with taps), as p_forward does; with the batchnorms
    folded its logits match p_forward's in all but the last bits. All
    moves go through one stack, so a move's logits may differ from a call
    with that move alone in the last bits.
    """
    layer = net.p_fc[0]
    head = np.concatenate([gc, pooled_pc], axis=1)
    split = head.shape[1]
    shared, _ = dense_forward(head, layer.w[:split], layer.b)
    y = slots @ layer.w[split:]
    if rows is not None:
        y = y[rows]
    y += np.repeat(shared, sizes, axis=0)
    skip = None
    if y.shape[1] == layer.w.shape[0]:  # residual only when input and output widths match
        skip = np.concatenate([np.repeat(head, sizes, axis=0),
                               slots if rows is None else slots[rows]], axis=1)
    feats = _folded_stack(_folded_block(y, layer, skip), net.p_fc[1:], dense_forward)
    taps = ragged_taps(sizes, net.p_seq[0].w.shape[0])
    feats = _folded_stack(feats, net.p_seq,
                          lambda x, k, b: conv1d_forward(x, k, b, taps=taps))
    scores, _ = dense_forward(feats, *net.p_head)
    return scores[:, 0].astype(np.float64)


def decode_logits(net: InferenceNet, gc: np.ndarray, pc: np.ndarray, slots: np.ndarray,
                  sizes: list[int], rows: np.ndarray | None = None) -> list[np.ndarray]:
    """Float64 candidate logits (K_b,) per move, from the policy network
    alone; their softmax is what ``policy_value_forward`` gives on the
    same rows, bit for bit. ``pc`` (B, 2w, D) are the moves' problem
    windows, pooled here; ``gc``, ``slots``, ``sizes`` and ``rows`` are as
    ``_policy_scores`` (and ``block_contexts``) take them. A move's logits
    may differ from a call with that move alone in the last bits; a
    one-move call is the reference."""
    logits = _policy_scores(net, gc, pc.mean(axis=1), slots, sizes, rows)
    bounds = list(accumulate(sizes, initial=0))
    return [logits[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def policy_value_forward(net: InferenceNet, gc: np.ndarray, terms: np.ndarray,
                         slots: np.ndarray,
                         sizes: list[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """(p (K_b,) per move, v3 (B, 3)) for a batch of moves; what p_forward
    and v_forward compute with training=False. ``terms`` (B, D + C) are
    the moves' ``window_terms``; ``gc``, ``slots`` (one row per
    candidate) and ``sizes`` are as ``_policy_scores`` takes them."""
    dim = net.v_seq[0].w.shape[1]
    h = np.concatenate([gc, terms[:, dim:]], axis=1)
    logits, _ = dense_forward(_folded_stack(h, net.v_fc, dense_forward), *net.v_head)
    scores = _policy_scores(net, gc, terms[:, :dim], slots, sizes)
    # float64 normalization, so equal logits give exactly uniform priors:
    # each move's softmax, bit for bit. The sums run move by move because
    # np.add.reduceat adds in another order than softmax's e.sum().
    ends = list(accumulate(sizes))
    starts = [0] + ends[:-1]
    e = np.exp(scores - np.repeat(np.maximum.reduceat(scores, starts), sizes))
    p = e / np.repeat([e[a:b].sum() for a, b in zip(starts, ends)], sizes)
    return [p[a:b] for a, b in zip(starts, ends)], softmax(logits.astype(np.float64))


def _window_memo(table: EmbeddingTable, net: InferenceNet) -> dict:
    """``net``'s pooled window terms on ``table``, keyed by the window's
    vertex ids (their bytes). The table holds one snapshot's memo at a
    time, that snapshot weakly: another snapshot starts an empty memo, so
    none reads another's terms, and the memo is freed with the table."""
    held = table.window_memo
    if held is None or held[0]() is not net:
        held = table.window_memo = (weakref.ref(net), {})
    return held[1]


def evaluate_frozen(net: InferenceNet, cfg, states: list[ColoringState],
                    tables: list[EmbeddingTable]) -> list[NetOutput]:
    """Score states, each with its graph's table, in one batched forward
    of a frozen snapshot.

    Each state's contexts are ids (``context_ids``), gathered once for
    the batch (``_gather``): ``gc`` by one scatter, the candidate slot
    rows by one ``table.padded`` gather per run of states that share a
    table (per distinct table where states come grouped by graph, as in
    self-play).
    A move's ``window_terms`` depend only on (snapshot, table, window), so
    they are memoised on the table (``_window_memo``), and the windows a
    batch meets first go through ``window_terms`` together; no leaf
    gathers its raw window. So the result is fixed by the arguments and
    the earlier calls on the same tables: like any batched row, a
    window's terms may differ in the last bits from a one-window call,
    and they come from the batch that first met the window.
    """
    outs: list[tuple[list[int], bool]] = []
    sizes: list[int] = []
    hot: list[list[int]] = []
    keys: list[tuple[dict, bytes]] = []
    runs: list[tuple[EmbeddingTable, list[int]]] = []  # (table, member ids) per run
    missing: dict[tuple[int, bytes], tuple] = {}  # windows no memo holds yet
    table = None
    for state, tab in zip(states, tables):
        actions, members, bins, capped = context_ids(state, tab, cfg)
        if tab is not table:
            table, ids = tab, []
            memo = _window_memo(table, net)
            runs.append((table, ids))
        ids += members
        window = state.order_window(cfg.window)
        key = window.tobytes()
        if key not in memo:
            missing[id(table), key] = (table, memo, key, window)
        keys.append((memo, key))
        hot.append(bins)
        sizes.append(len(actions))
        outs.append((actions, capped))

    if missing:
        new = list(missing.values())
        pc = np.stack([table.padded[window] for table, _, _, window in new])
        for (_, memo, key, _), row in zip(new, window_terms(net, pc)):
            memo[key] = row
    terms = np.array([memo[key] for memo, key in keys])
    gc, slots = _gather(cfg, runs, hot)
    p_list, v3 = policy_value_forward(net, gc, terms, slots, sizes)
    values = (v3[:, 0] - v3[:, 2]).tolist()
    return [NetOutput(actions=actions, p=p, v3=v, v=value, capped=capped)
            for (actions, capped), p, v, value in zip(outs, p_list, v3, values)]


def evaluate(store: ParamStore, cfg, state: ColoringState, table: EmbeddingTable) -> NetOutput:
    """Score one state with frozen statistics; pure given the arguments.

    Freezes ``store`` on every call; to score many states under one
    parameter version, freeze once and use ``evaluate_frozen``.
    """
    return evaluate_frozen(freeze(store, cfg), cfg, [state], [table])[0]


# -- loss and training -------------------------------------------------


def fcn_loss(p_list, v3_rows, pis, zs) -> tuple[float, int]:
    """Mean over moves of [-pi . log p - log v3[z]]; returns (loss, clamps)."""
    if not p_list:
        raise ParameterError("empty batch")
    total = 0.0
    clamps = 0
    for p, v3, pi, z in zip(p_list, v3_rows, pis, zs):
        pi = np.asarray(pi, dtype=np.float64)
        if pi.shape != np.shape(p):
            raise ContractError(f"pi has shape {pi.shape}, p has {np.shape(p)}")
        support = pi > 0
        if np.any(p[support] < LOG_EPS) or v3[Outcome(z).index] < LOG_EPS:
            clamps += 1
        total += -float(pi[support] @ np.log(np.maximum(p[support], LOG_EPS)))
        total += -float(np.log(max(v3[Outcome(z).index], LOG_EPS)))
    return total / len(p_list), clamps


def forward_backward(moves: list[MoveInput], pis, zs, store: ParamStore, cfg,
                     walks: list[tuple[int, str, tuple, int]], training: bool):
    """One joint pass over both networks.

    ``walks`` lists the live context rows as (move index, "pc"|"cand",
    position, vertex). Live rows are recomputed from the current transfer
    parameters through their sampled chains before the forward pass, and
    the loss gradient on them is pushed back through the same chains, so
    the returned gradients cover the embedding parameters too. All walks
    share one batched transfer pass per chain level, each way.
    """
    pc = np.stack([mi.pc for mi in moves]).astype(np.float64)
    cands = [mi.cand_sets.astype(np.float64) for mi in moves]
    if walks:
        live, tape = walks_forward(store, cfg, [(moves[b].graph, moves[b].table, vertex)
                                                for b, _, _, vertex in walks], cfg.walk_length)
        for (b, kind, pos, _), row in zip(walks, live):
            if kind == "pc":
                pc[b, pos] = row
            else:
                cands[b][pos] = row

    v3, v_logits, v_cache = v_forward(store, cfg, moves, training, pc_override=pc)
    p_list, p_logits, p_cache = p_forward(store, cfg, moves, training,
                                          pc_override=pc, cand_override=cands)
    loss, clamps = fcn_loss(p_list, v3, pis, zs)

    batch = len(moves)
    v_target = np.zeros((batch, 3))
    for b, z in enumerate(zs):
        v_target[b, Outcome(z).index] = 1.0
    dv_logits = (v3 - v_target) / batch
    dp_logits = [(p - np.asarray(pi)) / batch for p, pi in zip(p_list, pis)]

    grads: dict[str, np.ndarray] = {}
    d_pc = v_backward(store, dv_logits, v_cache, grads)
    d_pc_p, d_cands = p_backward(store, dp_logits, p_cache, grads)
    d_pc = d_pc + d_pc_p

    if walks:
        upstream = np.stack([d_pc[b, pos] if kind == "pc" else d_cands[b][pos]
                             for b, kind, pos, _ in walks])
        for name, val in walks_backward(store, cfg, tape, upstream).items():
            _acc(grads, name, val)

    return loss, grads, {"clamps": clamps, "walks": len(walks)}


def draw_walks(moves: list[MoveInput], cfg, rng: np.random.Generator):
    """Bernoulli(walk_rate) per context row, stopping at the walk budget."""
    walks: list[tuple[int, str, tuple, int]] = []
    if cfg.walk_rate <= 0.0:
        return walks
    for b, mi in enumerate(moves):
        for pos in range(mi.pc_vertices.size):
            v = int(mi.pc_vertices[pos])
            if v >= 0 and rng.random() < cfg.walk_rate:
                walks.append((b, "pc", pos, v))
        k, m = mi.cand_vertices.shape
        for ci in range(k):
            for si in range(m):
                v = int(mi.cand_vertices[ci, si])
                if v >= 0 and rng.random() < cfg.walk_rate:
                    walks.append((b, "cand", (ci, si), v))
    return walks[: cfg.walk_budget]


def fcn_train_step(batch: list[TrainMove], store: ParamStore, cfg,
                   adam: AdamState, rng: np.random.Generator):
    """Forward, backward, and one optimizer update over a batch of moves."""
    if not batch:
        raise ParameterError("empty batch")
    moves = [tm.move for tm in batch]
    pis = [tm.pi for tm in batch]
    zs = [tm.z for tm in batch]
    walks = draw_walks(moves, cfg, rng)
    loss, grads, stats = forward_backward(moves, pis, zs, store, cfg, walks,
                                          training=True)
    full = {name: grads[name] if name in grads else np.zeros_like(store[name])
            for name in store.trainable_names()}
    adam_step(store, full, adam)
    stats["capped_moves"] = sum(1 for mi in moves if mi.capped)
    return loss, stats
