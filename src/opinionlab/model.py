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
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import network
from .autodiff import Adam, Tensor
from .data import OpinionDataset, ProfileCorpus, label_to_continuous
from .encoder import AttentionParams, CorpusEncoding, EmbeddingTable
from .metrics import compute_metrics
from .simulate import sbcm_partner_matrix

VARIANTS = ("degroot", "fj", "bcm", "sbcm")

PROB_FLOOR = 1e-12


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
    bcm_gamma: float = 10.0      # initial sigmoid slope
    bcm_delta: float = 0.5       # initial confidence bound
    gumbel_tau: float = 0.5      # Gumbel-Softmax temperature (fixed)
    sbcm_rho: float = 0.0        # initial partner-choice exponent
    embed_dim: int = 32
    max_profile_len: int = 25
    freeze_ode: bool = False
    horizon: float | None = None  # defaults to the dataset horizon

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        for name in ("alpha", "beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("collocation", "epochs", "batch_size", "latent_dim", "num_layers", "width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.gumbel_tau <= 0:
            raise ValueError("gumbel_tau must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        return cls(**doc)


@dataclass
class GumbelSample:
    """Relaxed one-hot partner-choice vector(s) on the probability simplex."""

    z_tilde: np.ndarray


def gumbel_noise(rng: np.random.Generator, shape) -> np.ndarray:
    """Gumbel(0,1) noise via inverse transform: -log(-log(uniform))."""
    u = rng.uniform(size=shape)
    return -np.log(-np.log(np.clip(u, 1e-300, 1.0 - 1e-16)))


def gumbel_softmax(p, tau: float, noise):
    """softmax((log p + g) / tau); differentiable when `p` is a Tensor."""
    logits = (ad.log(ad.maximum(p, PROB_FLOOR)) + noise) * (1.0 / tau)
    return ad.softmax(logits, axis=-1)


def gumbel_softmax_sample(p, tau: float, rng: np.random.Generator) -> GumbelSample:
    """Draw one relaxed sample from the categorical distribution `p`."""
    p = np.asarray(p, dtype=float)
    return GumbelSample(gumbel_softmax(p, tau, gumbel_noise(rng, p.shape)))


# ----- ODE right-hand sides ----------------------------------------------------
#
# The *_rhs functions are the scalar per-user contracts (plain numpy); the
# *_rhs_all versions are the vectorized forms used in the training graph.
# They accept Tensors throughout, and opinions shaped (U,) or (J, U): a
# leading axis of J collocation points is evaluated in one pass.


def degroot_rhs(x_all, m_factors, q_factors, u: int) -> float:
    """sum over v != u of (m_u . q_v) * x_v."""
    x = np.asarray(x_all, dtype=float)
    weights = np.asarray(q_factors) @ np.asarray(m_factors)[u]
    weights[u] = 0.0
    return float(weights @ x)


def degroot_rhs_all(x, m_factors, q_factors):
    a_t = q_factors @ m_factors.T  # a_t[v, u] = m_u . q_v
    diag = (m_factors * q_factors).sum(axis=1)
    return x @ a_t - diag * x


def fj_rhs(x_all, innate, susceptibility, u: int) -> float:
    """s_u * sum_{v != u} x_v + (1 - s_u) * x_u(0) - x_u."""
    x = np.asarray(x_all, dtype=float)
    s = float(np.asarray(susceptibility).reshape(-1)[u]) if np.ndim(susceptibility) else float(susceptibility)
    return s * (x.sum() - x[u]) + (1.0 - s) * float(np.asarray(innate)[u]) - x[u]


def fj_rhs_all(x, innate, susceptibility):
    others = x.sum(axis=-1, keepdims=True) - x
    return susceptibility * others + (1.0 - susceptibility) * innate - x


def bcm_rhs(x_all, delta: float, gamma: float, u: int) -> float:
    """sum over v of sigmoid(gamma * (delta - |x_u - x_v|)) * (x_v - x_u)."""
    x = np.asarray(x_all, dtype=float)
    diff = x - x[u]
    return float((ad.sigmoid(gamma * (delta - np.abs(diff))) * diff).sum())


def bcm_rhs_all(x, delta, gamma):
    *lead, n = x.shape
    diff = x.reshape(*lead, 1, n) - x.reshape(*lead, n, 1)  # diff[..., u, v] = x_v - x_u
    gate = ad.sigmoid((delta - ad.absolute(diff)) * gamma)
    return (gate * diff).sum(axis=-1)


def sbcm_rhs(x_all, z_tilde, u: int) -> float:
    """sum over v of z_uv * (x_v - x_u)."""
    x = np.asarray(x_all, dtype=float)
    z = np.asarray(z_tilde, dtype=float)
    return float((z * (x - x[u])).sum())


def sbcm_rhs_all(x, z_tilde):
    pulled = (z_tilde @ x.reshape(*x.shape, 1)).reshape(*x.shape)
    return pulled - x * z_tilde.sum(axis=-1)


# ----- parameters --------------------------------------------------------------


class OdeParams:
    """Trainable parameters of the selected dynamics variant.

    Range constraints are enforced by reparameterization: susceptibility
    through a sigmoid, the confidence bound and sigmoid slope through a
    softplus.  The raw leaves are what the optimizer sees.
    """

    def __init__(self, variant: str, num_users: int, config: TrainConfig, rng: np.random.Generator,
                 innate: np.ndarray | None = None):
        self.variant = variant
        self.tau = config.gumbel_tau
        if variant == "degroot":
            scale = 0.1 / np.sqrt(config.latent_dim)
            self.m_factors = Tensor(rng.standard_normal((num_users, config.latent_dim)) * scale,
                                    requires_grad=True)
            self.q_factors = Tensor(rng.standard_normal((num_users, config.latent_dim)) * scale,
                                    requires_grad=True)
        elif variant == "fj":
            self.raw_s = Tensor(np.zeros(num_users), requires_grad=True)
            self.innate = np.zeros(num_users) if innate is None else np.asarray(innate, dtype=float)
        elif variant == "bcm":
            self.raw_delta = Tensor(np.array(_softplus_inv(config.bcm_delta)), requires_grad=True)
            self.raw_gamma = Tensor(np.array(_softplus_inv(config.bcm_gamma)), requires_grad=True)
        elif variant == "sbcm":
            self.rho = Tensor(np.array(float(config.sbcm_rho)), requires_grad=True)
        else:
            raise ValueError(f"unknown variant {variant!r}")

    def parameters(self) -> list[Tensor]:
        if self.variant == "degroot":
            return [self.m_factors, self.q_factors]
        if self.variant == "fj":
            return [self.raw_s]
        if self.variant == "bcm":
            return [self.raw_delta, self.raw_gamma]
        return [self.rho]

    def susceptibility(self):
        return ad.sigmoid(self.raw_s)

    def delta(self):
        return _softplus(self.raw_delta)

    def gamma(self):
        return _softplus(self.raw_gamma)

    def to_dict(self) -> dict:
        doc = {"variant": self.variant, "tau": self.tau}
        for name in ("m_factors", "q_factors", "raw_s", "raw_delta", "raw_gamma", "rho"):
            if hasattr(self, name):
                doc[name] = getattr(self, name).data.tolist()
        if self.variant == "fj":
            doc["innate"] = self.innate.tolist()
        return doc

    def load_dict(self, doc: dict):
        for name in ("m_factors", "q_factors", "raw_s", "raw_delta", "raw_gamma", "rho"):
            if name in doc:
                param = getattr(self, name)
                param.data = _checkpoint_array(doc[name], f"ode.{name}", param.shape)
        if "innate" in doc:
            self.innate = _checkpoint_array(doc["innate"], "ode.innate", self.innate.shape)


def _softplus(x):
    return ad.log(1.0 + ad.exp(x))


def _softplus_inv(y: float) -> float:
    return float(np.log(np.expm1(y)))


class SinnModel:
    """Network, output head, profile encoder, and dynamics parameters."""

    def __init__(self, fnn: network.FnnParams, head_w: Tensor, head_b: Tensor,
                 attention: AttentionParams, encoding: CorpusEncoding,
                 ode: OdeParams, num_users: int, num_classes: int,
                 horizon: float, config: TrainConfig):
        self.fnn = fnn
        self.head_w = head_w
        self.head_b = head_b
        self.attention = attention
        self.encoding = encoding
        self.ode = ode
        self.num_users = num_users
        self.num_classes = num_classes
        self.horizon = horizon
        self.config = config
        self.time_scale = 1.0 / horizon if horizon > 0 else 1.0
        self._eye = np.eye(num_users)
        # With no profile text at all the pooled vectors are exactly zero.
        self._no_profiles = not encoding.masks.any()

    def parameters(self) -> list[Tensor]:
        params = self.fnn.parameters() + [self.head_w, self.head_b] + self.attention.parameters()
        if not self.config.freeze_ode:
            params += self.ode.parameters()
        return params

    def encode_users(self):
        """(U, embed_dim) profile representations; Tensor during training.

        When no user has profile text the encoder's output is exactly zero
        and its context vector gets a zero gradient, so the encoder is
        skipped: the result is a constant zero array and Adam leaves the
        context vector untouched.
        """
        if self._no_profiles:
            return np.zeros((self.num_users, self.encoding.table.dim))
        return self.encoding.encode_all(self.attention)

    def latent_opinions(self, times, profile_matrix):
        """x_hat and dx_hat/dt, each (J, U), for every user at each of J times.

        All J*U rows go through the network in one pass.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        j = len(times)
        if isinstance(profile_matrix, Tensor):
            profiles = ad.concat([profile_matrix] * j, axis=0)
        else:
            profiles = np.tile(profile_matrix, (j, 1))
        inputs = network.build_inputs(np.repeat(times, self.num_users),
                                      np.tile(self._eye, (j, 1)), profiles, self.time_scale)
        x_hat, dx_dt = network.forward_with_time_derivative(self.fnn, inputs, self.time_scale)
        return x_hat.reshape(j, self.num_users), dx_dt.reshape(j, self.num_users)

    def logits(self, x_hat):
        return x_hat.reshape(-1, 1) * self.head_w + self.head_b

    def class_probabilities(self, x_hat):
        """softmax over class logits (equal to a sigmoid for two classes)."""
        return ad.softmax(self.logits(x_hat), axis=-1)

    def predict_proba(self, user_ids, times, encoding: CorpusEncoding | None = None) -> np.ndarray:
        """(n, C) class probabilities; pure numpy, no graph.

        `encoding` overrides the profile encoding the model was built with.
        """
        user_ids = np.atleast_1d(np.asarray(user_ids, dtype=int))
        if np.any(user_ids < 0) or np.any(user_ids >= self.num_users):
            raise ValueError("unknown user id")
        encoding = self.encoding if encoding is None else encoding
        h_all = _encode_numpy(encoding, self.attention.context.data)
        inputs = network.build_inputs(
            np.atleast_1d(np.asarray(times, dtype=float)),
            self._eye[user_ids],
            h_all[user_ids],
            self.time_scale,
        )
        x_hat = network.forward_inputs(self.fnn, inputs).data
        logits = x_hat[:, None] * self.head_w.data + self.head_b.data
        return ad.softmax(logits, axis=-1)

    def snapshot(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]

    def restore(self, snapshot: list[np.ndarray]):
        for p, data in zip(self.parameters(), snapshot):
            p.data = data.copy()


def _encode_numpy(encoding: CorpusEncoding, context: np.ndarray) -> np.ndarray:
    from .encoder import attention_pool

    return attention_pool(encoding.word_vectors, encoding.masks, np.asarray(context))


def predict(model: SinnModel, user_id: int, t_star: float,
            profiles: ProfileCorpus | None = None) -> np.ndarray:
    """Class probability vector for one user at one time.

    A `profiles` corpus overrides the one the model was built with (the
    frozen embedding table is reused).
    """
    encoding = None
    if profiles is not None:
        encoding = CorpusEncoding(profiles, model.num_users, model.encoding.table,
                                  max_len=model.config.max_profile_len)
    return model.predict_proba([user_id], [t_star], encoding)[0]


def build_model(train_ds: OpinionDataset, profiles: ProfileCorpus, config: TrainConfig) -> SinnModel:
    rng = np.random.default_rng(config.seed)
    num_users, num_classes = train_ds.num_users, train_ds.num_classes
    horizon = config.horizon if config.horizon is not None else train_ds.horizon

    table = EmbeddingTable.from_corpus(profiles, dim=config.embed_dim, seed=config.seed)
    encoding = CorpusEncoding(profiles, num_users, table, max_len=config.max_profile_len)
    attention = AttentionParams.init(config.embed_dim, seed=config.seed + 1)

    input_dim = 1 + num_users + config.embed_dim
    fnn = network.init_params(config.num_layers, config.width, input_dim, seed=config.seed + 2)
    head_w = Tensor(rng.standard_normal(num_classes), requires_grad=True)
    head_b = Tensor(np.zeros(num_classes), requires_grad=True)

    innate = None
    if config.variant == "fj":
        innate = np.zeros(num_users)  # each user's first training post anchors them
        anchored, first = np.unique(train_ds.users(), return_index=True)
        innate[anchored] = label_to_continuous(train_ds.labels()[first], num_classes)
    ode = OdeParams(config.variant, num_users, config, rng, innate=innate)
    return SinnModel(fnn, head_w, head_b, attention, encoding, ode,
                     num_users, num_classes, horizon, config)


# ----- losses -------------------------------------------------------------------


def data_loss(model: SinnModel, users, times, labels, profile_matrix):
    """Mean cross-entropy between head probabilities and observed labels."""
    users = np.asarray(users, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if np.any(labels >= model.num_classes):
        raise ValueError("label out of range")
    prof = profile_matrix[users] if isinstance(profile_matrix, Tensor) else np.asarray(profile_matrix)[users]
    inputs = network.build_inputs(np.asarray(times, dtype=float), model._eye[users], prof, model.time_scale)
    x_hat = network.forward_inputs(model.fnn, inputs)
    logits = model.logits(x_hat)
    shift = np.max(logits.data, axis=-1, keepdims=True)
    shifted = logits - shift
    log_probs = shifted - ad.log(ad.exp(shifted).sum(axis=-1, keepdims=True))
    onehot = np.eye(model.num_classes)[labels]
    return -(log_probs * onehot).sum() / float(len(labels))


def ode_rhs_all(model: SinnModel, x_hat, noise=None):
    """Vectorized right-hand side of the configured dynamics at `x_hat`."""
    ode = model.ode
    if ode.variant == "degroot":
        return degroot_rhs_all(x_hat, ode.m_factors, ode.q_factors)
    if ode.variant == "fj":
        return fj_rhs_all(x_hat, ode.innate, ode.susceptibility())
    if ode.variant == "bcm":
        return bcm_rhs_all(x_hat, ode.delta(), ode.gamma())
    probs = sbcm_partner_matrix(x_hat, ode.rho)
    if noise is None:
        raise ValueError("the stochastic variant needs Gumbel noise")
    z_tilde = gumbel_softmax(probs, ode.tau, noise)
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
    if model.ode.variant != "degroot":
        return Tensor(0.0)
    return model.ode.m_factors.abs().sum() + model.ode.q_factors.abs().sum()


def total_loss(model: SinnModel, users, times, labels, collocation_times,
               noise_per_point=None, profile_matrix=None):
    """data + alpha * ode + beta * regularizer; returns (Tensor, components)."""
    cfg = model.config
    if profile_matrix is None:
        profile_matrix = model.encode_users()
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
        "fnn": network.params_to_dict(model.fnn),
        "head_w": model.head_w.data.tolist(),
        "head_b": model.head_b.data.tolist(),
        "context": model.attention.context.data.tolist(),
        "ode": model.ode.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _checkpoint_array(value, field: str, shape) -> np.ndarray:
    """`value` as a float array of `shape`, or ValueError naming `field`."""
    array = np.asarray(value, dtype=float)
    if array.shape != tuple(shape):
        raise ValueError(f"checkpoint field {field!r} has shape {array.shape}, expected {tuple(shape)}")
    return array


def load_model(path, profiles: ProfileCorpus) -> SinnModel:
    """Rebuild a model from a checkpoint plus the profile corpus it used.

    An array whose shape does not fit the checkpoint's `num_users`,
    `num_classes` and `config` raises ValueError naming the field.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    config = TrainConfig.from_dict(doc["config"])
    num_users, num_classes = int(doc["num_users"]), int(doc["num_classes"])
    horizon = float(doc["horizon"])

    table = EmbeddingTable.from_corpus(profiles, dim=config.embed_dim, seed=config.seed)
    encoding = CorpusEncoding(profiles, num_users, table, max_len=config.max_profile_len)
    attention = AttentionParams(_checkpoint_array(doc["context"], "context", (config.embed_dim,)))
    layout = network.init_params(config.num_layers, config.width,
                                 1 + num_users + config.embed_dim, seed=0)
    for key in ("weights", "biases"):
        shapes = [np.shape(v) for v in doc["fnn"][key]]
        expected = [p.shape for p in getattr(layout, key)]
        if shapes != expected:
            raise ValueError(f"checkpoint field 'fnn.{key}' has shapes {shapes}, expected {expected}")
    fnn = network.params_from_dict(doc["fnn"])
    head_w = Tensor(_checkpoint_array(doc["head_w"], "head_w", (num_classes,)), requires_grad=True)
    head_b = Tensor(_checkpoint_array(doc["head_b"], "head_b", (num_classes,)), requires_grad=True)
    rng = np.random.default_rng(config.seed)
    ode = OdeParams(config.variant, num_users, config, rng)
    ode.load_dict(doc["ode"])
    return SinnModel(fnn, head_w, head_b, attention, encoding, ode,
                     num_users, num_classes, horizon, config)
