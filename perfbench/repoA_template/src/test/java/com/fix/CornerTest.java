package com.fix;

import org.junit.Test;
import org.junit.Assert;

public class CornerTest {

    @Test(expected = IllegalArgumentException.class)
    public void testSpinTooFast() {
        new Corner().spin(200);
    }

    @Test
    public void testLocalFailure() {
        try {
            explode();
            Assert.fail("expected failure");
        } catch (IllegalStateException e) {
            // expected
        }
    }

    private void explode() {
        throw new IllegalStateException("local");
    }
}
