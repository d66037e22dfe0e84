"""The per-image synthetic digit generator, kept as the byte-exact
reference for revnet.data.synthetic_digits.

It rolls, noises and clips one image at a time with the same draws in the
same order as the library's block-vectorized generator. It shares only
the seven-segment templates with the library. Kept free of test_ prefix
so pytest does not collect it.
"""

import numpy as np

from revnet.data import LabeledDataset, _digit_template


def synthetic_digits(n_per_class, seed=0, size=28, noise=0.1, jitter=2):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    templates = [_digit_template(d, size) for d in range(10)]
    n = 10 * n_per_class
    images = np.zeros((n, 1, size, size), dtype=np.float32)
    labels = np.zeros(n, dtype=np.int64)
    i = 0
    for d in range(10):
        for _ in range(n_per_class):
            img = templates[d]
            if jitter:
                dy, dx = rng.integers(-jitter, jitter + 1, size=2)
                img = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
            if noise:
                img = img + rng.normal(0.0, noise, size=img.shape).astype(np.float32)
            images[i, 0] = np.clip(img, 0.0, 1.0)
            labels[i] = d
            i += 1
    return LabeledDataset(images, labels, 10)
