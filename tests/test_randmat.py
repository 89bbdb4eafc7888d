"""``randmat.trial_rngs`` against numpy's own seeding, bit for bit."""

import numpy as np
import pytest

from sddkit import bounds
from sddkit.randmat import trial_rng, trial_rngs

INDICES = [*range(701), 2 ** 32 - 1]


def same_generators(prefix, trials):
    """True when each generator of ``trial_rngs`` has the state, and gives
    the first raw bits, of ``np.random.default_rng([*prefix, t])``."""
    built = trial_rngs(prefix, trials)
    assert len(built) == len(trials)
    for t, rng in zip(trials, built):
        ref = np.random.default_rng([*prefix, t])
        if rng.bit_generator.state != ref.bit_generator.state:
            return False
        if rng.bit_generator.random_raw(3).tolist() != ref.bit_generator.random_raw(3).tolist():
            return False
    return True


class TestTrialRngs:
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 97 + 12345])
    def test_every_tag_matches_default_rng(self, seed):
        for tag in bounds._TAG.values():
            assert same_generators((seed, tag), range(701)), tag
            assert same_generators((seed, tag), range(2 ** 32 - 1, 2 ** 32)), tag

    @pytest.mark.parametrize("prefix", [(), (5,), (1, 2, 3, 4, 5), (2 ** 200 + 1, 208),
                                        (2 ** 64 + 3, 2 ** 40 + 5, 101)],
                             ids=["empty", "one_word", "five_words", "seven_words",
                                  "six_words"])
    def test_prefix_of_any_length(self, prefix):
        # Keys past four words run mix_entropy's loop over the words past
        # the pool.
        assert same_generators(prefix, range(0, 300, 7))
        assert same_generators(prefix, range(2 ** 32 - 4, 2 ** 32))

    def test_matches_trial_rng_in_any_range(self):
        trials = range(1000, 20, -3)
        assert [rng.bit_generator.state for rng in trial_rngs((71, 205), trials)] == \
            [trial_rng(71, 205, t).bit_generator.state for t in trials]

    def test_empty_range(self):
        assert trial_rngs((7, 101), range(0)) == []
        assert trial_rngs((7, 101), range(5, 5)) == []

    @pytest.mark.parametrize("prefix, trials", [
        ((-1, 101), range(3)),
        ((7, -101), range(3)),
        ((7, 101), range(-1, 3)),
        ((7, 101), range(2 ** 32 - 1, 2 ** 32 + 1)),
    ], ids=["negative_seed", "negative_tag", "negative_index", "index_past_32_bits"])
    def test_rejects_keys_the_hash_would_wrap(self, prefix, trials):
        with pytest.raises(ValueError):
            trial_rngs(prefix, trials)

    def test_state_words_serve_only_pcg64(self):
        seq = trial_rngs((7, 101), range(1))[0].bit_generator.seed_seq
        with pytest.raises(ValueError):
            seq.generate_state(8)
        assert seq.generate_state(4, np.uint64).dtype == np.uint64
