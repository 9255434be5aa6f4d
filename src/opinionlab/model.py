"""ODE-regularized neural opinion model.

A small tanh network approximates every user's latent opinion over time.
It trains on two signals at once: cross-entropy against the observed class
labels, and the squared residual of a chosen opinion-dynamics ODE evaluated
at randomly drawn collocation times.  Four dynamics are supported:

* ``degroot``  - pairwise influence with low-rank factorized weights
* ``fj``       - susceptibility-weighted pull toward others plus an anchor
                 on each user's first expressed opinion
* ``bcm``      - bounded confidence with a sigmoid-relaxed threshold
* ``sbcm``     - stochastic partner choice, relaxed with Gumbel-Softmax so
                 the sampling stays differentiable

Setting both loss weights to zero reduces training to the plain
data-fitted network (the ablation arm).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import network
from .autodiff import Adam, Tensor
from .data import OpinionDataset, ProfileCorpus, label_to_continuous
from .encoder import CorpusEncoding, EmbeddingTable
from .metrics import compute_metrics
from .simulate import DISTANCE_EPS

VARIANTS = ("degroot", "fj", "bcm", "sbcm")

# The trainable leaves of each variant's dynamics, in optimizer order.
ODE_LEAVES = {
    "degroot": ("m_factors", "q_factors"),
    "fj": ("raw_s",),
    "bcm": ("raw_delta", "raw_gamma"),
    "sbcm": ("rho",),
}

PROB_FLOOR = 1e-12

GUMBEL_TAU = 0.5  # Gumbel-Softmax temperature (fixed)

# Raw (pre-softplus) initial values of the bcm confidence bound and sigmoid slope.
INIT_RAW_DELTA = float(np.log(np.expm1(0.5)))
INIT_RAW_GAMMA = float(np.log(np.expm1(10.0)))


class TrainingDiverged(RuntimeError):
    """A loss term became non-finite during optimization."""


@dataclass
class TrainConfig:
    variant: str = "sbcm"
    num_layers: int = 3          # hidden tanh layers
    width: int = 8               # units per hidden layer
    latent_dim: int = 2          # rank of the factorized influence matrix
    alpha: float = 1.0           # weight of the ODE residual term
    beta: float = 0.1            # weight of the l1 regularizer
    collocation: int = 1         # residual evaluation points per step
    epochs: int = 1000
    batch_size: int = 128
    learning_rate: float = 0.001
    seed: int = 0
    embed_dim: int = 32

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        for name in ("num_layers", "width", "latent_dim", "collocation", "epochs", "batch_size",
                     "embed_dim", "seed"):
            value, least = getattr(self, name), 0 if name == "seed" else 1
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        for name, bound in (("alpha", ">= 0"), ("beta", ">= 0"), ("learning_rate", "> 0")):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0 <= value <= sys.float_info.max or (bound == "> 0" and value == 0)):
                raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        return cls(**doc)


def gumbel_noise(rng: np.random.Generator, shape) -> np.ndarray:
    """Gumbel(0,1) noise via inverse transform: -log(-log(uniform))."""
    u = rng.uniform(size=shape)
    return -np.log(-np.log(np.clip(u, 1e-300, 1.0 - 1e-16)))


def gumbel_softmax(p: Tensor, tau: float, noise) -> Tensor:
    """softmax((log p + g) / tau), differentiable in `p`."""
    logits = (p.maximum(PROB_FLOOR).log() + noise) * (1.0 / tau)
    return ad.softmax(logits, axis=-1)


def sbcm_partner_matrix(opinions: Tensor, rho) -> Tensor:
    """Row-stochastic matrix of partner probabilities, zero diagonal.

    Opinions shaped (U,) give a (U, U) matrix and (J, U) give J of them;
    row u holds `simulate.sbcm_partner_probs` for user u, differentiable in
    the opinions and in `rho`.
    """
    *lead, n = opinions.shape
    dist = (opinions.reshape(*lead, n, 1) - opinions.reshape(*lead, 1, n)).abs()
    w = (dist.maximum(DISTANCE_EPS).log() * (-1.0 * rho)).exp()
    w = w * (1.0 - np.eye(n))
    return w / w.sum(axis=-1, keepdims=True)


# ----- ODE right-hand sides ----------------------------------------------------
#
# The vectorized right-hand sides of the training graph.  They accept
# Tensors throughout, and opinions shaped (U,) or (J, U): a leading axis of
# J collocation points is evaluated in one pass.


def degroot_rhs_all(x, m_factors, q_factors):
    a_t = q_factors @ m_factors.T  # a_t[v, u] = m_u . q_v
    diag = (m_factors * q_factors).sum(axis=1)
    return x @ a_t - diag * x


def fj_rhs_all(x, innate, susceptibility):
    others = x.sum(axis=-1, keepdims=True) - x
    return susceptibility * others + (1.0 - susceptibility) * innate - x


def bcm_rhs_all(x, delta, gamma):
    *lead, n = x.shape
    diff = x.reshape(*lead, 1, n) - x.reshape(*lead, n, 1)  # diff[..., u, v] = x_v - x_u
    gate = _sigmoid((delta - diff.abs()) * gamma)
    return (gate * diff).sum(axis=-1)


def sbcm_rhs_all(x, z_tilde):
    pulled = (z_tilde @ x.reshape(*x.shape, 1)).reshape(*x.shape)
    return pulled - x * z_tilde.sum(axis=-1)


# ----- parameters --------------------------------------------------------------


def init_ode_leaves(variant: str, num_users: int, latent_dim: int,
                    rng: np.random.Generator) -> dict[str, Tensor]:
    """The trainable leaves of `variant`'s dynamics, by name in ODE_LEAVES order.

    Range constraints are enforced by reparameterization: `ode_rhs_all` puts
    the susceptibility through a sigmoid, the confidence bound and sigmoid
    slope through a softplus.  The raw leaves are what the optimizer sees.
    Only `degroot` draws from `rng`.
    """
    if variant == "degroot":
        scale = 0.1 / np.sqrt(latent_dim)
        values = [rng.standard_normal((num_users, latent_dim)) * scale for _ in range(2)]
    elif variant == "fj":
        values = [np.zeros(num_users)]
    elif variant == "bcm":
        values = [np.array(INIT_RAW_DELTA), np.array(INIT_RAW_GAMMA)]
    elif variant == "sbcm":
        values = [np.array(0.0)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return {name: Tensor(value, requires_grad=True) for name, value in zip(ODE_LEAVES[variant], values)}


def _softplus(x: Tensor) -> Tensor:
    # max(x, 0) + log(1 + exp(-|x|)) stays finite where log(1 + exp(x))
    # overflows, and |x|'s zero slope at 0 gives the exact gradient 0.5 there.
    magnitude = x.abs()
    return 0.5 * (x + magnitude) + (1.0 + (magnitude * -1.0).exp()).log()


def _sigmoid(x: Tensor) -> Tensor:
    # 0.5 * (1 + tanh(x/2)) stays finite where 1 / (1 + exp(-x)) overflows.
    return 0.5 * ((x * 0.5).tanh() + 1.0)


class SinnModel:
    """Network, output head, profile encoder, and dynamics parameters.

    `context` is the encoder's context vector, `ode` maps each name in
    ODE_LEAVES[variant] to its leaf, and `innate` holds `fj`'s anchors
    (None for the other variants).
    """

    def __init__(self, fnn: network.FnnParams, head_w: Tensor, head_b: Tensor, context: Tensor,
                 encoding: CorpusEncoding, ode: dict, innate: np.ndarray | None,
                 num_users: int, num_classes: int, horizon: float, config: TrainConfig):
        self.fnn = fnn
        self.head_w = head_w
        self.head_b = head_b
        self.context = context
        self.encoding = encoding
        self.ode = ode
        self.innate = innate
        self.num_users = num_users
        self.num_classes = num_classes
        self.horizon = horizon
        self.config = config
        self.time_scale = 1.0 / horizon if horizon > 0 else 1.0

    def groups(self) -> dict[str, list[Tensor]]:
        """The trainable leaves by group, in optimizer order."""
        return {"fnn": self.fnn.parameters(), "head": [self.head_w, self.head_b],
                "attention": [self.context], "ode": list(self.ode.values())}

    def parameters(self) -> list[Tensor]:
        return [p for group in self.groups().values() for p in group]

    def latent_opinions(self, times, profile_matrix):
        """x_hat and dx_hat/dt, each (J, U), for every user at each of J times.

        All J*U rows go through the network in one pass.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        j = len(times)
        users = np.tile(np.arange(self.num_users), j)
        x_hat, dx_dt = network.forward_with_time_derivative(
            self.fnn, np.repeat(times, self.num_users), users, profile_matrix[users], self.time_scale)
        return x_hat.reshape(j, self.num_users), dx_dt.reshape(j, self.num_users)

    def logits(self, x_hat):
        return x_hat.reshape(-1, 1) * self.head_w + self.head_b

    def predict_proba(self, user_ids, times) -> np.ndarray:
        """(n, C) class probabilities as an ndarray.

        `user_ids` must be integers in [0, num_users), one per time; anything
        else raises ValueError.  The profiles are the ones the model was
        built or loaded with.
        """
        user_ids = np.atleast_1d(_check_ids(user_ids, "user id", self.num_users))
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if user_ids.ndim != 1 or user_ids.shape != times.shape:
            raise ValueError(f"user ids {user_ids.shape} and times {times.shape} must be "
                             "1-d and of equal length")
        h_all = ad.as_tensor(self.encoding.encode_all(self.context)).data
        x_hat = network.forward(self.fnn, times, user_ids, h_all[user_ids], self.time_scale)
        return ad.softmax(self.logits(x_hat), axis=-1).data

    def snapshot(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]

    def restore(self, snapshot: list[np.ndarray]):
        for p, data in zip(self.parameters(), snapshot):
            p.data = data.copy()


def build_model(train_ds: OpinionDataset, profiles: ProfileCorpus, config: TrainConfig) -> SinnModel:
    rng = np.random.default_rng(config.seed)
    num_users, num_classes = train_ds.num_users, train_ds.num_classes

    table = EmbeddingTable.from_corpus(profiles, dim=config.embed_dim, seed=config.seed)
    encoding = CorpusEncoding(profiles, num_users, table)
    context = Tensor(np.random.default_rng(config.seed + 1).standard_normal(config.embed_dim) * 0.1,
                     requires_grad=True)

    input_dim = 1 + num_users + config.embed_dim
    fnn = network.init_params(config.num_layers, config.width, input_dim, seed=config.seed + 2)
    head_w = Tensor(rng.standard_normal(num_classes), requires_grad=True)
    head_b = Tensor(np.zeros(num_classes), requires_grad=True)

    innate = None
    if config.variant == "fj":
        innate = np.zeros(num_users)  # each user's first training post anchors them
        anchored, first = np.unique(train_ds.users(), return_index=True)
        innate[anchored] = label_to_continuous(train_ds.labels()[first], num_classes)
    ode = init_ode_leaves(config.variant, num_users, config.latent_dim, rng)
    return SinnModel(fnn, head_w, head_b, context, encoding, ode, innate,
                     num_users, num_classes, train_ds.horizon, config)


# ----- losses -------------------------------------------------------------------


def _check_ids(ids, name: str, bound: int) -> np.ndarray:
    """`ids` as an array; ValueError unless every entry is an integer in [0, bound)."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu" or np.any(ids < 0) or np.any(ids >= bound):
        raise ValueError(f"{name} out of range [0, {bound}) or not an integer")
    return ids


def data_loss(model: SinnModel, users, times, labels, profile_matrix):
    """Mean cross-entropy between head probabilities and observed labels.

    A user id or label that is not an integer in range raises ValueError.
    """
    users = _check_ids(users, "user id", model.num_users)
    labels = _check_ids(labels, "label", model.num_classes)
    x_hat = network.forward(model.fnn, np.asarray(times, dtype=float), users, profile_matrix[users],
                            model.time_scale)
    logits = model.logits(x_hat)
    shift = np.max(logits.data, axis=-1, keepdims=True)
    shifted = logits - shift
    log_probs = shifted - shifted.exp().sum(axis=-1, keepdims=True).log()
    onehot = np.eye(model.num_classes)[labels]
    return -(log_probs * onehot).sum() / float(len(labels))


def ode_rhs_all(model: SinnModel, x_hat, noise=None):
    """Vectorized right-hand side of the configured dynamics at `x_hat`."""
    ode, variant = model.ode, model.config.variant
    if variant == "degroot":
        return degroot_rhs_all(x_hat, ode["m_factors"], ode["q_factors"])
    if variant == "fj":
        return fj_rhs_all(x_hat, model.innate, _sigmoid(ode["raw_s"]))
    if variant == "bcm":
        return bcm_rhs_all(x_hat, _softplus(ode["raw_delta"]), _softplus(ode["raw_gamma"]))
    probs = sbcm_partner_matrix(x_hat, ode["rho"])
    if noise is None:
        raise ValueError("the stochastic variant needs Gumbel noise")
    z_tilde = gumbel_softmax(probs, GUMBEL_TAU, noise)
    return sbcm_rhs_all(x_hat, z_tilde)


def ode_loss(model: SinnModel, collocation_times, profile_matrix, noise_per_point=None):
    """Mean over collocation points of the summed squared ODE residual.

    All J points are evaluated in one batch: `noise_per_point` is (J, U, U)
    Gumbel noise for the stochastic variant.
    """
    times = np.atleast_1d(np.asarray(collocation_times, dtype=float))
    x_hat, dx_dt = model.latent_opinions(times, profile_matrix)
    residual = dx_dt - ode_rhs_all(model, x_hat, noise_per_point)
    return (residual * residual).sum() / float(len(times))


def l1_regularizer(model: SinnModel):
    """l1 norm of the factorized influence matrices; zero for other variants."""
    if model.config.variant != "degroot":
        return Tensor(0.0)
    return model.ode["m_factors"].abs().sum() + model.ode["q_factors"].abs().sum()


def total_loss(model: SinnModel, users, times, labels, collocation_times,
               noise_per_point=None, profile_matrix=None):
    """data + alpha * ode + beta * regularizer; returns (Tensor, components)."""
    cfg = model.config
    if profile_matrix is None:
        profile_matrix = model.encoding.encode_all(model.context)
    loss = data_loss(model, users, times, labels, profile_matrix)
    parts = {"data": loss.item(), "ode": 0.0, "reg": 0.0}
    if cfg.alpha > 0:
        ode = ode_loss(model, collocation_times, profile_matrix, noise_per_point)
        parts["ode"] = ode.item()
        loss = loss + cfg.alpha * ode
    if cfg.beta > 0:
        reg = l1_regularizer(model)
        parts["reg"] = reg.item()
        loss = loss + cfg.beta * reg
    parts["total"] = loss.item()
    for name in ("data", "ode", "reg"):
        if not np.isfinite(parts[name]):
            raise TrainingDiverged(f"non-finite {name} loss")
    return loss, parts


# ----- training -----------------------------------------------------------------


@dataclass
class HistoryRow:
    epoch: int
    data_loss: float
    ode_loss: float
    reg: float
    total: float
    val_acc: float
    val_f1: float


def selection_rule(val_ds: OpinionDataset) -> str:
    """Which epoch's parameters `train` returns.

    The epoch with the best validation macro-F1 (the first one on ties); with
    an empty validation split there is no F1 to compare, so the last epoch.
    """
    return "best_val_macro_f1" if len(val_ds) > 0 else "last_epoch"


def train(splits, profiles: ProfileCorpus, config: TrainConfig):
    """Mini-batch Adam over the composite loss.

    `splits` is (train, val) or (train, val, test); only the first two are
    used.  Returns the model with the parameters `selection_rule` picks and
    the per-epoch history.
    """
    train_ds, val_ds = splits[0], splits[1]
    model = build_model(train_ds, profiles, config)
    rng = np.random.default_rng(config.seed)
    opt = Adam(model.parameters(), lr=config.learning_rate)

    users = train_ds.users()
    times = train_ds.times()
    labels = train_ds.labels()
    n = len(train_ds)
    val_users, val_times, val_labels = val_ds.users(), val_ds.times(), val_ds.labels()

    history: list[HistoryRow] = []
    select_by_val = selection_rule(val_ds) == "best_val_macro_f1"
    best_f1, best_snapshot = -1.0, None
    needs_noise = config.variant == "sbcm" and config.alpha > 0

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        sums = {"data": 0.0, "ode": 0.0, "reg": 0.0, "total": 0.0}
        num_batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            colloc = rng.uniform(0.0, model.horizon, size=config.collocation)
            noise = (
                gumbel_noise(rng, (config.collocation, model.num_users, model.num_users))
                if needs_noise
                else None
            )
            try:
                loss, parts = total_loss(model, users[idx], times[idx], labels[idx], colloc, noise)
            except TrainingDiverged as err:
                raise TrainingDiverged(f"epoch {epoch}: {err}") from err
            opt.zero_grad()
            loss.backward()
            opt.step()
            for key in sums:
                sums[key] += parts[key]
            num_batches += 1

        if len(val_ds) > 0:
            preds = model.predict_proba(val_users, val_times).argmax(axis=1)
            val_metrics = compute_metrics(val_labels, preds, model.num_classes)
            val_acc, val_f1 = val_metrics.accuracy, val_metrics.macro_f1
        else:
            val_acc = val_f1 = 0.0
        history.append(HistoryRow(
            epoch,
            sums["data"] / num_batches,
            sums["ode"] / num_batches,
            sums["reg"] / num_batches,
            sums["total"] / num_batches,
            val_acc,
            val_f1,
        ))
        if select_by_val and val_f1 > best_f1:
            best_f1, best_snapshot = val_f1, model.snapshot()

    if best_snapshot is not None:
        model.restore(best_snapshot)
    return model, history


def history_to_csv(history, path):
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "data_loss", "ode_loss", "reg", "total", "val_acc", "val_f1"])
        for row in history:
            writer.writerow([row.epoch, repr(row.data_loss), repr(row.ode_loss), repr(row.reg),
                             repr(row.total), repr(row.val_acc), repr(row.val_f1)])


# ----- checkpointing ------------------------------------------------------------


def save_model(model: SinnModel, path):
    doc = {
        "config": model.config.to_dict(),
        "num_users": model.num_users,
        "num_classes": model.num_classes,
        "horizon": model.horizon,
        "fnn": {"weights": [w.data.tolist() for w in model.fnn.weights],
                "biases": [b.data.tolist() for b in model.fnn.biases]},
        "head_w": model.head_w.data.tolist(),
        "head_b": model.head_b.data.tolist(),
        "context": model.context.data.tolist(),
        "ode": {"variant": model.config.variant,
                **{name: leaf.data.tolist() for name, leaf in model.ode.items()},
                **({} if model.innate is None else {"innate": model.innate.tolist()})},
        "vocabulary": sorted(model.encoding.table.vocabulary),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _checkpoint_field(section, key: str, where: str | None = None):
    """`section[key]`, or ValueError naming the field; `where` names the
    section (None for the top level)."""
    if not isinstance(section, dict):
        raise ValueError(f"checkpoint field {where!r} must be a JSON object")
    if key not in section:
        field = f"{where}.{key}" if where else key
        raise ValueError(f"checkpoint lacks field {field!r}")
    return section[key]


def _checkpoint_array(value, field: str, shape) -> np.ndarray:
    """`value` as a finite float array of `shape`, or ValueError naming `field`."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"checkpoint field {field!r} is not an array of numbers") from None
    if array.shape != tuple(shape):
        raise ValueError(f"checkpoint field {field!r} has shape {array.shape}, expected {tuple(shape)}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"checkpoint field {field!r} has non-finite values")
    return array


def _checkpoint_number(doc: dict, key: str, integer: bool):
    """A positive integer (`integer`) or a finite non-negative number."""
    value = _checkpoint_field(doc, key)
    if integer and type(value) is int and value > 0:
        return value
    if not integer and type(value) in (int, float) and 0 <= value <= sys.float_info.max:
        return float(value)
    kind = "a positive integer" if integer else "a finite non-negative number"
    raise ValueError(f"checkpoint field {key!r} must be {kind}, got {value!r}")


def _checkpoint_config(doc: dict) -> TrainConfig:
    section = _checkpoint_field(doc, "config")
    values = {f.name: _checkpoint_field(section, f.name, "config") for f in fields(TrainConfig)}
    unknown = sorted(set(section) - set(values))
    if unknown:
        raise ValueError(f"checkpoint field 'config' has unknown keys {unknown}")
    try:
        return TrainConfig.from_dict(values)
    except (TypeError, ValueError) as err:
        raise ValueError(f"checkpoint field 'config': {err}") from None


def load_model(path, profiles: ProfileCorpus) -> SinnModel:
    """Rebuild a model from a checkpoint plus the profile corpus to encode.

    The embedding table is rebuilt from the checkpoint's vocabulary, so the
    corpus supplies only each user's profile text.  A missing field, a
    section that is not an object, a config key that TrainConfig does not
    know, or an array whose shape does not fit the checkpoint's
    `num_users`, `num_classes` and `config` raises ValueError naming the
    field, before anything is sized from `num_users` or the config.  So
    does a finite `context` so large that pooling the corpus overflows.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a checkpoint must be a JSON object")
    config = _checkpoint_config(doc)
    num_users, num_classes = (_checkpoint_number(doc, key, integer=True)
                              for key in ("num_users", "num_classes"))
    horizon = _checkpoint_number(doc, "horizon", integer=False)

    words = _checkpoint_field(doc, "vocabulary")
    if not (isinstance(words, list) and all(isinstance(w, str) for w in words)
            and words == sorted(set(words))):
        raise ValueError("checkpoint field 'vocabulary' must be a sorted list of distinct words")
    context = Tensor(_checkpoint_array(_checkpoint_field(doc, "context"), "context", (config.embed_dim,)),
                     requires_grad=True)
    arrays = {}
    for key in ("weights", "biases"):
        values = _checkpoint_field(_checkpoint_field(doc, "fnn"), key, "fnn")
        if not isinstance(values, list) or len(values) != config.num_layers + 1:
            raise ValueError(f"checkpoint field 'fnn.{key}' must be a list of {config.num_layers + 1} arrays")
        dims = [1 + num_users + config.embed_dim] + [config.width] * config.num_layers + [1]
        shapes = list(zip(dims, dims[1:])) if key == "weights" else [(d,) for d in dims[1:]]
        arrays[key] = [_checkpoint_array(v, f"fnn.{key}", shape) for v, shape in zip(values, shapes)]
    fnn = network.FnnParams(arrays["weights"], arrays["biases"])
    head_w, head_b = (Tensor(_checkpoint_array(_checkpoint_field(doc, key), key, (num_classes,)),
                             requires_grad=True) for key in ("head_w", "head_b"))
    table = EmbeddingTable.random(words, dim=config.embed_dim, seed=config.seed)
    encoding = CorpusEncoding(profiles, num_users, table)
    with np.errstate(over="ignore", invalid="ignore"):
        pooled = ad.as_tensor(encoding.encode_all(context)).data
    if not np.all(np.isfinite(pooled)):
        raise ValueError("checkpoint field 'context' gives non-finite profile encodings")
    ode_doc = _checkpoint_field(doc, "ode")
    shape = {"degroot": (num_users, config.latent_dim), "fj": (num_users,)}.get(config.variant, ())
    ode = {name: Tensor(_checkpoint_array(_checkpoint_field(ode_doc, name, "ode"), f"ode.{name}", shape),
                        requires_grad=True)
           for name in ODE_LEAVES[config.variant]}
    innate = None
    if config.variant == "fj":
        innate = _checkpoint_array(_checkpoint_field(ode_doc, "innate", "ode"), "ode.innate", (num_users,))
    return SinnModel(fnn, head_w, head_b, context, encoding, ode, innate,
                     num_users, num_classes, horizon, config)
