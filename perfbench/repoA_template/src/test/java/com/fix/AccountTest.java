package com.fix;

import org.junit.Test;
import static org.junit.Assert.assertEquals;
import static org.junit.Assert.assertThrows;

public class AccountTest {

    private Account open() {
        return new Account(100);
    }

    @Test
    public void testWithdrawOk() {
        Account acct = open();
        acct.deposit(40);
        acct.withdraw(15);
        assertEquals(25, acct.balance());
    }

    @Test
    public void testDepositOk() {
        Account acct = open();
        acct.deposit(60);
        assertEquals(60, acct.balance());
    }

    @Test(expected = IllegalArgumentException.class)
    public void testWithdrawNegative() {
        Account acct = open();
        acct.withdraw(-5);
    }

    @Test
    public void testDepositOverLimit() {
        Account acct = open();
        assertThrows(IllegalStateException.class, () -> acct.deposit(200));
    }
}
