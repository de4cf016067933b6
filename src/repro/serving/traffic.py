"""Deterministic, seeded request streams for the serving tier.

A :class:`TrafficGenerator` materializes one simulated user population's
request stream up front, as a list of timestamped
:class:`ServingRequest` records on the *virtual* clock — the open-loop
arrival process the scenario driver replays.  Three properties matter:

- **determinism**: the stream is a pure function of ``(seed, parameters)``
  — the generator draws from a fresh one-shot RNG stream
  (:func:`repro.common.rng.generator`), so the same seed produces a
  bit-identical stream on every run, machine and call (the property the
  Hypothesis tests pin down);
- **skew**: item ids are drawn from an analytic Zipf distribution whose
  exponent monotonically controls concentration
  (:meth:`TrafficGenerator.zipf_probabilities` exposes the exact pmf, so
  skew-monotonicity is testable without sampling noise);
- **load shape**: arrivals follow a nonhomogeneous Poisson process whose
  rate is modulated by a profile — ``"flat"``, a ``"step"`` (the
  load-spike ablation: rate multiplies by ``step_factor`` at
  ``step_at``), or ``"diurnal"`` (a sinusoid over ``period``).

Requests come in two classes: ``"read"`` (an inference lookup pulling
``keys_per_request`` embedding rows) and ``"update"`` (an online-learning
write touching the same rows), split by ``read_fraction``.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import generator

#: One timestamped request: virtual arrival time, class, originating
#: user, and the item ids it touches.
ServingRequest = namedtuple("ServingRequest", ["time", "kind", "user", "ids"])

#: Load profiles a generator understands.
PROFILES = ("flat", "step", "diurnal")

#: Floor on the instantaneous rate factor — a diurnal trough never stops
#: traffic entirely (an exponential gap at rate 0 would never terminate).
MIN_RATE_FACTOR = 0.1


class TrafficGenerator:
    """A seeded Zipf-skewed request stream on the virtual clock."""

    def __init__(self, seed, n_items, base_rate, zipf_exponent=1.1,
                 read_fraction=0.9, keys_per_request=4, n_users=64,
                 profile="flat", step_at=0.5, step_factor=4.0, period=1.0,
                 amplitude=0.5):
        if n_items < 1:
            raise ConfigError("n_items must be >= 1, got %r" % (n_items,))
        if base_rate <= 0:
            raise ConfigError("base_rate must be > 0, got %r" % (base_rate,))
        if not 0.0 <= read_fraction <= 1.0:
            raise ConfigError(
                "read_fraction must be in [0, 1], got %r" % (read_fraction,)
            )
        if keys_per_request < 1:
            raise ConfigError(
                "keys_per_request must be >= 1, got %r" % (keys_per_request,)
            )
        if profile not in PROFILES:
            raise ConfigError(
                "unknown profile %r (expected one of %s)"
                % (profile, ", ".join(PROFILES))
            )
        self.seed = int(seed)
        self.n_items = int(n_items)
        self.base_rate = float(base_rate)
        self.zipf_exponent = float(zipf_exponent)
        self.read_fraction = float(read_fraction)
        self.keys_per_request = int(keys_per_request)
        self.n_users = max(1, int(n_users))
        self.profile = profile
        self.step_at = float(step_at)
        self.step_factor = float(step_factor)
        self.period = float(period)
        self.amplitude = float(amplitude)
        #: The exact item-sampling pmf (rank-frequency form): tests assert
        #: skew monotonicity on this vector, free of sampling noise.
        self.probabilities = self.zipf_probabilities(self.n_items,
                                                     self.zipf_exponent)
        if self.keys_per_request <= self.n_items and np.count_nonzero(
                self.probabilities) < self.keys_per_request:
            # A steep enough exponent underflows the tail to zero mass; a
            # request could then never find enough distinct ids.
            raise ConfigError(
                "zipf_exponent %r leaves fewer than keys_per_request=%d "
                "items with non-zero probability"
                % (zipf_exponent, self.keys_per_request)
            )

    @staticmethod
    def zipf_probabilities(n_items, exponent):
        """The analytic Zipf pmf over ``n_items`` ranks.

        ``p(k) ∝ k ** -exponent`` for rank ``k`` in ``1..n_items``.  A
        larger exponent concentrates more mass on the head: ``p(1)`` is
        strictly increasing in the exponent (for ``n_items > 1``), which
        is the monotone-skew contract the property tests check.
        """
        ranks = np.arange(1, int(n_items) + 1, dtype=float)
        weights = ranks ** -float(exponent)
        return weights / weights.sum()

    def rate_factor(self, t):
        """The load profile's rate multiplier at virtual time *t*."""
        if self.profile == "step":
            factor = self.step_factor if t >= self.step_at else 1.0
        elif self.profile == "diurnal":
            factor = 1.0 + self.amplitude * np.sin(
                2.0 * np.pi * t / self.period
            )
        else:
            factor = 1.0
        return max(factor, MIN_RATE_FACTOR)

    def rate_at(self, t):
        """Instantaneous arrival rate (requests/virtual-second) at *t*."""
        return self.base_rate * self.rate_factor(t)

    def _draw_ids(self, rng, cdf):
        """One request's ids, drawn as ``rng.choice(n_items,
        keys_per_request, replace=keys_per_request > n_items,
        p=probabilities)`` draws them — the same doubles consumed, the
        same ids returned — from the pmf's normalized CDF *cdf*, computed
        once per stream instead of re-validated and re-summed per request.

        With replacement it is one inverse-CDF lookup.  Without, ids are
        kept in first-occurrence order and a repeat goes through
        ``choice``'s own re-draw round: draw the missing count, zero the
        ids found so far in a copy of the pmf, renormalize, look up again.
        """
        k = self.keys_per_request
        ids = cdf.searchsorted(rng.random(k), side="right").tolist()
        if k > self.n_items:
            return tuple(ids)
        ids = list(dict.fromkeys(ids))
        if len(ids) < k:
            p = self.probabilities.copy()
            while len(ids) < k:
                x = rng.random(k - len(ids))
                p[ids] = 0.0
                cdf = np.cumsum(p)
                cdf /= cdf[-1]
                new = cdf.searchsorted(x, side="right").tolist()
                ids += dict.fromkeys(new)
        return tuple(ids)

    def generate(self, duration):
        """The full request stream over ``[0, duration)`` virtual seconds.

        Arrivals follow a piecewise-constant-rate Poisson process: each
        gap is exponential at the rate in force at the previous arrival
        (no thinning).  Ids within one request are drawn without
        replacement (an inference batch never fetches the same row twice),
        falling back to with-replacement draws only when
        ``keys_per_request`` exceeds the catalogue — bit-identical to one
        ``Generator.choice`` per request (:meth:`_draw_ids`).  Returns a
        list of :class:`ServingRequest`, strictly ordered by arrival time.
        """
        rng = generator(self.seed, "serving-traffic")
        duration = float(duration)
        cdf = np.cumsum(self.probabilities)
        cdf /= cdf[-1]
        requests = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / self.rate_at(t))
            if t >= duration:
                break
            user = int(rng.integers(self.n_users))
            kind = "read" if rng.random() < self.read_fraction else "update"
            requests.append(
                ServingRequest(t, kind, user, self._draw_ids(rng, cdf)))
        return requests
